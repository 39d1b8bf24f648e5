"""Benchmark of the stresswatch loop: CLI pipeline, classifier kernels and
the SoC simulator.

    python3 bench/run.py --workload loop-1h --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One run is one process: it generates (or reuses) the
seeded inputs, measures set-up in fresh interpreters, runs timed passes
of the workload's CLI steps for
``--seconds``, checks the last pass's outputs against independent oracles,
and prints one JSON result as the last line of stdout. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports per-layer metrics from the spans. Everything it writes
goes under ``.bench_build/stresswatch/`` in the checkout. See README.md.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: the nets are small and extra threads only
# add scheduling noise. An explicit setting in the environment wins.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans as tracing  # noqa: E402
from workloads import WORKLOADS, count_rows  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "stresswatch"

SETUP_PROCESSES = 15
MIN_PASSES = 3

# Host speed on shared machines drifts: on a 2-vCPU x86-64 VM the same pass
# took anywhere from 1.7 to 3.3 s within a minute, and a fixed loop twice as
# long at one moment as at another. A fixed probe therefore runs before each
# step and after the last, and each pass's times are multiplied by
# (PROBE_REF_S / the pass's mean probe time) ** PROBE_EXPONENT: "reference
# seconds". Set-up times get the same scaling from the set-up phase's
# median probe. Pass times moved less than the probe (log-log slopes of
# 0.44 to 1.0 by workload); exponents near 0.7 gave the smallest spread
# over ten seeds per workload (README.md has the table). The probe is
# benchmark code, so no change to the program can move it.
PROBE_REF_S = 0.0075
PROBE_EXPONENT = 0.7
PROBE_REPEATS = 3
SETUP_CODE = "import stresswatch.cli as c; c.build_parser()"

PLATFORMS = ("cortex_m4", "ibex", "ri5cy_single", "ri5cy_multi8")
NET_A_LAYER_WEIGHTS = (6 * 50, 51 * 50, 51 * 3)

# Per-layer metrics from spans: (metric, span, field).
SPAN_METRICS = (
    ("cli.features.self_s", "cli.features", "self_s"),
    ("cli.classify.self_s", "cli.classify", "self_s"),
    ("cli.budget.self_s", "cli.budget", "self_s"),
    ("biosignal_features.extract_window_features.self_s",
     "biosignal_features.extract_window_features", "self_s"),
    ("biosignal_features.detect_r_peaks.s", "biosignal_features.detect_r_peaks", "s"),
    ("biosignal_features.detect_r_peaks.calls", "biosignal_features.detect_r_peaks", "calls"),
    ("biosignal_features.gsr_slope_features.s", "biosignal_features.gsr_slope_features", "s"),
    ("biosignal_features.gsr_slope_features.calls",
     "biosignal_features.gsr_slope_features", "calls"),
    ("nn_core.train.s", "nn_core.train", "s"),
    ("nn_core.infer_float.s", "nn_core.infer_float", "s"),
    ("nn_core.infer_float.calls", "nn_core.infer_float", "calls"),
    ("nn_core.read_fann.s", "nn_core.read_fann", "s"),
    ("nn_core.write_fann.s", "nn_core.write_fann", "s"),
    ("quantizer.infer_fixed.self_s", "quantizer.infer_fixed", "self_s"),
    ("quantizer.infer_fixed.calls", "quantizer.infer_fixed", "calls"),
    ("quantizer.tanh_lut_eval.s", "quantizer.tanh_lut_eval", "s"),
    ("quantizer.tanh_lut_eval.calls", "quantizer.tanh_lut_eval", "calls"),
    ("quantizer.quantize.s", "quantizer.quantize", "s"),
    ("harvest_sim.simulate_soc.s", "harvest_sim.simulate_soc", "s"),
)
COUNT_METRICS = (
    "cli.input_rows", "cli.output_bytes",
    "biosignal_features.windows", "biosignal_features.zero_hrv_windows",
    "nn_core.train.row_epochs", "quantizer.saturated_weights", "harvest_sim.simulated_days",
)


def _count_train(counts, arguments, result):
    counts["nn_core.train.row_epochs"] += len(arguments["dataset"]) * int(arguments["epochs"])


def _count_quantize(counts, arguments, result):
    counts["quantizer.saturated_weights"] += int(result.saturated_weights)


def _count_soc(counts, arguments, result):
    counts["harvest_sim.simulated_days"] += int(arguments["days"])


HOOKS = {"nn_core.train": _count_train, "quantizer.quantize": _count_quantize,
         "harvest_sim.simulate_soc": _count_soc}


@dataclass
class StepResult:
    code: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class PassResult:
    steps: dict[str, StepResult]
    probes: list[float]

    @property
    def seconds(self) -> float:
        """Sum of the step times, unscaled."""
        return sum(r.seconds for r in self.steps.values())

    @property
    def factor(self) -> float:
        """Multiplier from host seconds during this pass to reference seconds."""
        return speed_factor(statistics.fmean(self.probes))

    def ref_seconds(self, steps, group: str | None = None) -> float:
        return self.factor * sum(self.steps[s.name].seconds for s in steps
                                 if group is None or s.group == group)


_PROBE_CSV = "\n".join(f"{i / 256:.12g},{i / 7.0:.10g}" for i in range(4000))


def speed_factor(probe_s: float) -> float:
    """Multiplier from host seconds to reference seconds, given the typical
    probe time over the same stretch."""
    return (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def probe_seconds() -> float:
    """Median time of a fixed mix of the kinds of work the program does:
    float formatting, CSV parsing, and numpy calls on small arrays. (Pure
    integer loops slow down less than these when the host is contended, so
    the mix leaves them out.)"""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        text = ",".join(f"{i},{i / 7.0:.12g}" for i in range(4000))
        rows = [(float(a), float(b)) for a, b in csv.reader(io.StringIO(_PROBE_CSV))]
        v = np.arange(64, dtype=np.float64)
        for _ in range(600):
            v = np.tanh(v * 0.5 + 0.1)
        x, w = np.zeros(5), np.ones((6, 50))
        for _ in range(300):
            z = np.append(x, 1.0) @ w
            z = np.clip(np.where(z >= 0, z, -z), -1.0, 1.0)
        times.append(perf_counter() - start)
        del text, rows
    return statistics.median(times)


class BenchError(Exception):
    """The benchmark cannot run here (no package source, failed input
    generation); no result is printed."""


def import_package():
    if not (SRC / "stresswatch" / "cli.py").is_file():
        raise BenchError(f"no stresswatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stresswatch
    import stresswatch.cli

    if Path(stresswatch.__file__).resolve().parent != SRC / "stresswatch":
        raise BenchError(f"imported stresswatch from {stresswatch.__file__}, not {SRC}")
    return stresswatch


def run_step(cli, argv) -> StepResult:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a dead benchmark
            traceback.print_exc()
            code = -1
    return StepResult(code, perf_counter() - start, out.getvalue(), err.getvalue())


def run_pass(cli, steps) -> PassResult:
    """Run every step once, probing host speed before each step and after
    the last."""
    gc.collect()
    results, probes = {}, [probe_seconds()]
    for step in steps:
        results[step.name] = run_step(cli, step.argv)
        probes.append(probe_seconds())
    return PassResult(results, probes)


def measure_setup() -> tuple[list[float], list[float]]:
    """(wall time of each fresh import, probe times before each and after
    the last). One import's time did not track the probes next to it, but
    the median import time tracked the median probe time of the phase."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], []
    for _ in range(SETUP_PROCESSES):
        probes.append(probe_seconds())
        start = perf_counter()
        # wait() without a timeout blocks in waitpid; with one, it polls
        # in sleeps of up to 50 ms, which would quantize the measurement
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                                stdout=subprocess.DEVNULL)
        code = proc.wait()
        times.append(perf_counter() - start)
        if code != 0:
            raise BenchError(f"importing stresswatch.cli failed with exit code {code}")
    probes.append(probe_seconds())
    return times, probes


def prepare_inputs(workload: str, seed: int) -> tuple[Path, dict]:
    inputs = WORK / "inputs" / f"{workload}-seed{seed}"
    meta_path = inputs / "meta.json"
    if not meta_path.is_file():
        shutil.rmtree(inputs, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inputs)],
            timeout=600, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr}")
    return inputs, json.loads(meta_path.read_text(encoding="ascii"))


def environment(np_module) -> dict:
    git = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "stresswatch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def median_steps(passes, steps) -> dict[str, float]:
    """Median reference seconds of each step over the passes."""
    return {s.name: statistics.median(p.factor * p.steps[s.name].seconds for p in passes)
            for s in steps}


def io_counts(steps, results: dict[str, StepResult]) -> dict[str, int]:
    rows = sum(count_rows(p) for s in steps for p in s.reads)
    out = sum(p.stat().st_size for s in steps for p in s.writes if p.exists())
    out += sum(len(r.stdout) + len(r.stderr) for r in results.values())
    return {"cli.input_rows": rows, "cli.output_bytes": out}


def modelled_costs(pkg) -> dict[str, tuple[float, str]]:
    """Device cost of network A from the calibrated model: cycles per
    connection layer (the platform's cycle slope times the layer's
    weights) and microjoules per complete detection."""
    pkg.perf_model.build_profiles()
    models = pkg.perf_model.fit_cycle_model(pkg.perf_model.builtin_calibration())
    out = {}
    for p in PLATFORMS:
        for i, weights in enumerate(NET_A_LAYER_WEIGHTS, start=1):
            out[f"perf_model.device_cycles.{p}.A.l{i}"] = (models[p].alpha * weights, "cycles")
        out[f"perf_model.device_uj_per_detection.{p}"] = (
            pkg.perf_model.detection_energy(p) * 1e6, "uJ")
    return out


def count_failures(passes) -> tuple[int, int]:
    attempted = sum(len(p.steps) for p in passes)
    failed = sum(1 for p in passes for r in p.steps.values() if r.code != 0)
    return attempted, failed


def run_checks(workload, results) -> tuple[list, dict]:
    try:
        checks = workload.check(results)
        return checks.results, checks.quality
    except Exception as exc:  # a missing or malformed output fails the check run
        return [("checks", False, f"{type(exc).__name__}: {exc}")], {}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    pkg = import_package()
    cli = pkg.cli
    inputs, meta = prepare_inputs(workload_name, seed)
    out = WORK / "runs" / f"{workload_name}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[workload_name](inputs, out, meta)
    steps = workload.steps()

    setup, setup_probes = ([], []) if trace else measure_setup()
    tracer = tracing.Tracer()
    modelled = {}
    if trace:
        tracer.install(pkg, HOOKS)
        tracer.pass_id = 0
        modelled = modelled_costs(pkg)
        tracer.uninstall()

    # Passes run while the next one, at the mean length so far, still
    # ends within --seconds; at least MIN_PASSES untraced passes (one, and
    # one traced, when tracing).
    timed, traced = [], []
    start = perf_counter()
    while True:
        timed.append(run_pass(cli, steps))
        if trace:
            tracer.install(pkg, HOOKS)
            tracer.pass_id = len(traced) + 1
            try:
                traced.append(run_pass(cli, steps))
            finally:
                tracer.uninstall()
        elapsed = perf_counter() - start
        next_pass = elapsed / len(timed)
        if len(timed) >= (1 if trace else MIN_PASSES) and elapsed + next_pass > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = timed + traced

    last = (traced or timed)[-1].steps
    check_results, quality = run_checks(workload, last)
    attempted, failed = count_failures(passes)
    attempted += len(check_results)
    failed += sum(1 for _, ok, _ in check_results if not ok)

    step_s = median_steps(timed, steps)
    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(timed), "traced_passes": len(traced),
        "environment": environment(np),
        "gen_s": meta["gen_s"],
        "setup_raw_s": setup,
        "setup_probe_s": setup_probes,
        "pass_raw_s": [p.seconds for p in timed],
        "pass_factor": [p.factor for p in timed],
        "probe_s": [p.probes for p in timed],
        "step_median_ref_s": step_s,
        "stages": {k: {"value": v, "unit": u}
                   for k, (v, u) in workload.stage_figures(step_s).items()},
        "quality": quality,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in check_results],
        "failed_ops_frac": failed / attempted,
    }

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup)
                        * speed_factor(statistics.median(setup_probes)), "s"),
            "wall_s": (statistics.median(p.ref_seconds(steps) for p in timed), "s"),
            "primary_s": (statistics.median(p.ref_seconds(steps, "primary") for p in timed), "s"),
            "secondary_s": (statistics.median(p.ref_seconds(steps, "secondary")
                                              for p in timed), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer_metrics(workload, steps, traced, tracer, modelled,
                                    statistics.median(p.ref_seconds(steps) for p in timed))
        spans_path = WORK / "traces" / f"{workload_name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_path = WORK / "results" / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    report["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": report["metrics"]}
    return report


def span_metric(agg: dict, span: str, field: str, factor: float) -> tuple[float, str]:
    """One field of one span name: a call count, or a time in reference
    seconds. A span the pass never entered reads 0."""
    if field == "calls":
        return agg.get(span, {}).get("calls", 0), "count"
    return agg.get(span, {}).get(field, 0.0) * factor, "s"


def per_layer_metrics(workload, steps, traced, tracer, modelled, untraced_wall):
    per_pass = []
    for pass_id, p in enumerate(traced, start=1):
        agg = tracing.aggregate(tracer.spans, pass_id)
        m = {name: span_metric(agg, span, field, p.factor) for name, span, field in SPAN_METRICS}
        m["trace_overhead_s"] = (p.ref_seconds(steps) - untraced_wall, "s")
        per_pass.append(m)
    metrics = {k: (statistics.median(m[k][0] for m in per_pass), per_pass[0][k][1])
               for k in per_pass[0]}
    agg0 = tracing.aggregate(tracer.spans, 0)
    metrics["perf_model.build_profiles.s"] = (
        agg0.get("perf_model.build_profiles", {}).get("s", 0.0), "s")

    counts = dict.fromkeys(COUNT_METRICS, 0)
    for key, value in tracer.counts.items():
        counts[key] = value // len(traced)
    counts.update(io_counts(steps, traced[-1].steps))
    counts.update(workload.output_counts())
    for key, value in counts.items():
        metrics[key] = (value, "bytes" if key == "cli.output_bytes" else "count")
    windows = counts["biosignal_features.windows"]
    metrics["biosignal_features.useful_window_frac"] = (
        (windows - counts["biosignal_features.zero_hrv_windows"]) / windows if windows else 0.0,
        "1")
    metrics.update(modelled)
    return metrics


def summary_lines(report: dict) -> list[str]:
    env = report["environment"]
    lines = [
        f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
        f"passes={report['passes']} traced={report['traced_passes']}",
        f"# git={env['git_sha']} src={env['src_sha256'][:12]} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas_threads']}",
        f"# gen_s {report['gen_s']:.4f} s (input generation, outside timing)",
        f"# speed factor {statistics.median(report['pass_factor']):.4f} (reference seconds per "
        f"host second; unscaled median pass {statistics.median(report['pass_raw_s']):.4f} s)",
        f"# failed_ops_frac {report['failed_ops_frac']:.6g}",
    ]
    for name, m in {**report["stages"], **report["metrics"]}.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in report["quality"].items():
        lines.append(f"{name} {value!r} (exact)")
    for c in report["checks"]:
        if not c["ok"]:
            lines.append(f"# CHECK FAILED {c['name']}: {c['detail']}")
    return lines


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=1800)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        combined[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(report)))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
