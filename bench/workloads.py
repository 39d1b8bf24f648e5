"""The three benchmark workloads: the CLI steps of one pass, the checks of
its outputs, and the stage figures derived from per-step timings.

A step is one ``cli.main`` call. Steps are split into a ``primary`` group,
the work the workload exists to measure, and a ``secondary`` group, the
rest of the pass; see README.md for the split of each workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracles as orc

# Gates on output quality. The fixed-point limit is the one the package
# documents for Q16.16 against float; the accuracy floor sits well below
# what the generated schedule gives (about 0.97) so only a real
# regression trips it.
FIXED_ERR_LIMIT = 1e-2
LABEL_AGREEMENT_FLOOR = 0.99
STRESS_ACCURACY_FLOOR = 0.85
SOC_OUT_PROBES = 2000

# The documented calibration table: cycles per classification, by platform
# and reference network, in the row order `report` prints.
REPORT_CYCLES = (30210, 902763, 40661, 955588, 22772, 519354, 6126, 108316)


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]
    group: str                          # "primary" or "secondary"
    reads: tuple[Path, ...] = ()        # CSV inputs, for the row count
    writes: tuple[Path, ...] = ()       # output files, for the byte count


@dataclass
class Checks:
    """Outcome of every correctness check, plus the exact quality figures
    they measured."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def count_rows(path: Path) -> int:
    """Data rows of a CSV file with a header line."""
    return max(0, path.read_bytes().count(b"\n") - 1)


def _check_classify(checks: Checks, name: str, csv_path: Path, expected_out: np.ndarray,
                    exact: bool) -> list[int]:
    """Compare classify's CSV with reference outputs. ``exact``: labels and
    9-digit margins must match character for character (the fixed path is
    bit-exact); otherwise margins within 1e-7 and labels wherever the
    reference margin exceeds that."""
    labels, margins = orc.read_classify_csv(csv_path)
    if len(labels) != expected_out.shape[0]:
        checks.add(name, False, f"{len(labels)} rows, expected {expected_out.shape[0]}")
        return labels
    bad = 0
    for i, out in enumerate(expected_out):
        label, margin = orc.label_margin(out)
        if exact:
            ok = labels[i] == label and margins[i] == f"{margin:.9g}"
        else:
            ok = abs(float(margins[i]) - margin) <= 1e-7 and (labels[i] == label or margin <= 1e-7)
        bad += not ok
    checks.add(name, bad == 0, f"{bad} of {len(labels)} rows differ from the oracle")
    return labels


def _normalized(features: np.ndarray, model: Path) -> np.ndarray:
    mean, std = orc.load_norm(Path(str(model) + ".norm.json"))
    return (features - mean) / std


def _stderr_discrepancy(text: str) -> float:
    return float(text.strip().rsplit(":", 1)[1])


def _check_budget(checks: Checks, name: str, stdout: str, scenario: str, days: int,
                  start: float = 1.0, rate: float | None = None, probes=()) -> dict:
    """Check a ``budget --json`` document: the sustainability figures
    against the documented model, and every simulation total against the
    segment-level oracle, to the nanojoule."""
    doc = json.loads(stdout)
    sim = doc["simulation"]
    checks.add(f"{name}.intake", math.isclose(doc["daily_intake_j"], orc.daily_intake_j(scenario),
                                              rel_tol=1e-12), str(doc["daily_intake_j"]))
    checks.add(f"{name}.rate", math.isclose(doc["max_detections_per_minute"],
                                            orc.sustainable_rate_per_min(scenario), rel_tol=1e-12),
               str(doc["max_detections_per_minute"]))
    use_rate = doc["max_detections_per_minute"] if rate is None else rate
    oracle = orc.SocOracle(scenario, use_rate, doc["detection_energy_j"], start)
    want, at = oracle.run(days, probes)
    got = {k: orc.to_nj(sim[k]) for k in
           ("final_charge_j", "min_charge_j", "max_charge_j", "intake_j", "served_j",
            "spilled_j", "unmet_j")}
    expect = {"final_charge_j": want.final, "min_charge_j": want.lo, "max_charge_j": want.hi,
              "intake_j": want.intake, "served_j": want.served, "spilled_j": want.spilled,
              "unmet_j": want.unmet}
    diff = {k: (got[k], expect[k]) for k in got if got[k] != expect[k]}
    checks.add(f"{name}.totals", not diff and sim["days"] == days, f"differs: {diff}")
    start_nj = oracle.c0
    checks.add(f"{name}.conservation",
               got["final_charge_j"] - start_nj
               == got["intake_j"] - got["served_j"] - got["spilled_j"],
               "final - initial != intake - served - spilled")
    first = sim["first_brownout_s"]
    checks.add(f"{name}.brownout",
               sim["brownout"] == (want.first_brownout is not None)
               and (first is None if want.first_brownout is None
                    else first == float(want.first_brownout)),
               f"cli {sim['brownout']}/{first}, oracle {want.first_brownout}")
    return {"totals": want, "at": at}


class Workload:
    name: str

    def __init__(self, inputs: Path, out: Path, meta: dict):
        self.inputs, self.out, self.meta = inputs, out, meta

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, results: dict) -> Checks:
        """``results`` maps step name to the StepResult of the last pass."""
        raise NotImplementedError

    def stage_figures(self, step_s: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Named stage figures from per-step median seconds."""
        raise NotImplementedError

    def output_counts(self) -> dict[str, int]:
        """Counts read from the pass's outputs, keyed by per-layer metric."""
        return {}


class Loop1h(Workload):
    name = "loop-1h"

    def steps(self):
        i, o = self.inputs, self.out
        ecg, gsr, labels = i / "ecg.csv", i / "gsr.csv", i / "labels.csv"
        feats, model, model_q = o / "features.csv", o / "model.net", o / "model_q16.net"
        return [
            Step("features", ("features", str(ecg), str(gsr), "-o", str(feats)), "primary",
                 (ecg, gsr), (feats,)),
            Step("train", ("train", str(feats), str(labels), "-o", str(model)), "secondary",
                 (feats, labels), (model, Path(str(model) + ".norm.json"))),
            Step("quantize", ("quantize", str(model), "-o", str(model_q)), "secondary",
                 (), (model_q,)),
            Step("classify", ("classify", str(feats), "--model", str(model_q),
                              "-o", str(o / "classify.csv")), "secondary",
                 (feats,), (o / "classify.csv",)),
            Step("report", ("report",), "secondary"),
            Step("budget", ("budget", "--days", "1", "--json"), "secondary"),
        ]

    def check(self, results):
        c = Checks()
        o = self.out
        features = np.loadtxt(o / "features.csv", delimiter=",", skiprows=1, ndmin=2)
        truth = np.loadtxt(self.inputs / "labels.csv", skiprows=1, dtype=np.int64)
        want = orc.window_count(count_rows(self.inputs / "ecg.csv"), gen.ECG_FS, gen.WINDOW_S,
                                gen.STRIDE_S)
        c.add("features.windows", features.shape[0] == want == truth.size,
              f"{features.shape[0]} windows, closed form {want}, truth {truth.size}")

        float_net = orc.parse_net(o / "model.net")
        c.add("train.topology", float_net.sizes == gen.NET_A_SIZES, str(float_net.sizes))
        fixed_net = orc.parse_net(o / "model_q16.net")
        q, _ = orc.quantize_net(float_net, 16)
        c.add("quantize.weights", fixed_net.frac_bits == 16 and all(
            np.array_equal(a, b) for a, b in zip(fixed_net.mats, q.mats)),
            "quantized weights differ from round-half-away of the float model")

        x = _normalized(features, o / "model_q16.net")
        fixed_out = orc.fixed_forward(fixed_net, x) / float(1 << 16)
        labels = _check_classify(c, "classify.fixed_file", o / "classify.csv", fixed_out, True)
        float_out = orc.float_forward(orc.dequantize(fixed_net), x)
        err = float(np.max(np.abs(fixed_out - float_out)))
        c.add("classify.fixed_err", err <= FIXED_ERR_LIMIT, f"{err:.3g}")
        c.add("classify.reported_err",
              math.isclose(_stderr_discrepancy(results["classify"].stderr), err, rel_tol=1e-2),
              results["classify"].stderr.strip())
        accuracy = float(np.mean(np.array(labels) == truth)) if len(labels) == truth.size else 0.0
        c.add("classify.stress_accuracy", accuracy >= STRESS_ACCURACY_FLOOR, f"{accuracy:.4f}")
        float_labels = [orc.label_margin(r)[0] for r in float_out]
        c.quality.update(
            stress_accuracy=accuracy,
            fixed_max_abs_err=err,
            fixed_label_agreement=float(np.mean(np.array(labels) == np.array(float_labels))),
        )

        table = results["report"].stdout.splitlines()
        cycles = tuple(int(line.split()[2]) for line in table[1:])
        c.add("report.cycles", cycles == REPORT_CYCLES, str(cycles))
        _check_budget(c, "budget", results["budget"].stdout, "indoor-day", 1)
        return c

    def stage_figures(self, step_s):
        return {"features_s": (step_s["features"], "s"), "train_s": (step_s["train"], "s")}

    def output_counts(self):
        f = np.loadtxt(self.out / "features.csv", delimiter=",", skiprows=1, ndmin=2)
        zero = int(np.count_nonzero((f[:, 0] == 0) & (f[:, 1] == 0) & (f[:, 2] == 0)))
        return {"biosignal_features.windows": f.shape[0],
                "biosignal_features.zero_hrv_windows": zero}


class Classify10k(Workload):
    name = "classify-10k"

    def steps(self):
        i, o = self.inputs, self.out
        rows = i / "rows.csv"

        def classify(name, model, *extra):
            dst = o / f"{name}.csv"
            return Step(name, ("classify", str(rows), "--model", str(model), *extra,
                               "-o", str(dst)), "primary", (rows,), (dst,))

        return [
            classify("classify_float", i / "a.net"),
            classify("classify_fixed", i / "a.net", "--fixed"),
            classify("classify_file", i / "a_q16.net"),
            Step("quantize_b", ("quantize", str(i / "b.net"), "-o", str(o / "b_q16.net")),
                 "secondary", (), (o / "b_q16.net",)),
            Step("footprint_b", ("footprint", "--model", str(i / "b.net"), "--json"),
                 "secondary"),
        ]

    def check(self, results):
        c = Checks()
        i, o = self.inputs, self.out
        rows = np.loadtxt(i / "rows.csv", delimiter=",", skiprows=1, ndmin=2)
        a = orc.parse_net(i / "a.net")
        x = _normalized(rows, i / "a.net")
        float_out = orc.float_forward(a, x)
        float_labels = _check_classify(c, "classify.float", o / "classify_float.csv",
                                       float_out, False)

        q, _ = orc.quantize_net(a, 16)
        fixed_out = orc.fixed_forward(q, x) / float(1 << 16)
        fixed_labels = _check_classify(c, "classify.fixed", o / "classify_fixed.csv",
                                       fixed_out, True)
        err = float(np.max(np.abs(fixed_out - float_out)))
        c.add("classify.fixed_err", err <= FIXED_ERR_LIMIT, f"{err:.3g}")
        c.add("classify.reported_err",
              math.isclose(_stderr_discrepancy(results["classify_fixed"].stderr), err,
                           rel_tol=1e-2), results["classify_fixed"].stderr.strip())
        agreement = (float(np.mean(np.array(fixed_labels) == np.array(float_labels)))
                     if len(fixed_labels) == len(float_labels) else 0.0)
        c.add("classify.label_agreement", agreement >= LABEL_AGREEMENT_FLOOR, f"{agreement:.5f}")

        a_q = orc.parse_net(i / "a_q16.net")
        x_q = _normalized(rows, i / "a_q16.net")
        _check_classify(c, "classify.fixed_file", o / "classify_file.csv",
                        orc.fixed_forward(a_q, x_q) / float(1 << 16), True)

        b = orc.parse_net(i / "b.net")
        b_q, _ = orc.quantize_net(b, 16)
        got = orc.parse_net(o / "b_q16.net")
        c.add("quantize_b.weights", got.frac_bits == 16 and got.sizes == b.sizes and all(
            np.array_equal(x1, x2) for x1, x2 in zip(got.mats, b_q.mats)),
            "quantized net B differs from round-half-away of the float model")
        doc = json.loads(results["footprint_b"].stdout)
        weights = sum(m.size for m in b.mats)
        total = 16 * sum(b.sizes) + 4 * weights + 8 * len(b.sizes)
        c.add("footprint_b.bytes", doc["weights"] == weights and doc["total_bytes"] == total,
              f"{doc['weights']} weights, {doc['total_bytes']} B; expected {weights}, {total}")
        c.quality.update(fixed_max_abs_err=err, fixed_label_agreement=agreement)
        return c

    def stage_figures(self, step_s):
        n = gen.CLASSIFY_ROWS
        return {
            "classify_rows_per_s": (n / step_s["classify_float"], "1/s"),
            "classify_fixed_rows_per_s": (n / step_s["classify_fixed"], "1/s"),
            "classify_file_rows_per_s": (n / step_s["classify_file"], "1/s"),
            "model_io_s": (step_s["quantize_b"] + step_s["footprint_b"], "s"),
        }


class Soc30d(Workload):
    name = "soc-30d"
    DAYS = 30

    def steps(self):
        m, days = self.meta, str(self.DAYS)
        soc = self.out / "soc.csv"
        return [
            Step("spill", ("budget", "--days", days, "--json"), "primary"),
            Step("in_range", ("budget", "--scenario", "outdoor-1h", "--days", days,
                              "--start-charge", str(m["in_range_start"]), "--json"), "primary"),
            Step("brownout", ("budget", "--days", days, "--rate", str(m["brownout_rate"]),
                              "--start-charge", str(m["brownout_start"]), "--json"), "primary"),
            Step("soc_out", ("budget", "--days", days, "--start-charge", str(m["soc_out_start"]),
                             "--soc-out", str(soc), "--json"), "secondary", (), (soc,)),
        ]

    def check(self, results):
        c = Checks()
        m, days = self.meta, self.DAYS
        spill = _check_budget(c, "spill", results["spill"].stdout, "indoor-day", days)
        c.add("spill.regime", spill["totals"].spilled > 0 and spill["totals"].unmet == 0,
              "expected surplus spilled and no unmet demand")
        rng = _check_budget(c, "in_range", results["in_range"].stdout, "outdoor-1h", days,
                            m["in_range_start"])
        c.add("in_range.regime", rng["totals"].spilled == 0 and rng["totals"].unmet == 0,
              "expected charge to stay strictly inside the battery")
        low = _check_budget(c, "brownout", results["brownout"].stdout, "indoor-day", days,
                            m["brownout_start"], m["brownout_rate"])
        c.add("brownout.regime", low["totals"].first_brownout is not None,
              "expected a brownout")

        n = days * orc.DAY_S
        pick = random.Random(n).sample(range(n), SOC_OUT_PROBES) + [0, n - 1]
        out = _check_budget(c, "soc_out", results["soc_out"].stdout, "indoor-day", days,
                            m["soc_out_start"], probes=pick)
        lines = (self.out / "soc.csv").read_text(encoding="ascii").splitlines()
        c.add("soc_out.lines", len(lines) == n + 1 and lines[0] == "t_s,charge_j",
              f"{len(lines)} lines")
        if len(lines) == n + 1:
            bad = [s for s in pick if lines[s + 1] != f"{s},{out['at'][s] / 1e9:.12g}"]
            c.add("soc_out.samples", not bad, f"{len(bad)} of {len(pick)} sampled seconds differ")
        return c

    def stage_figures(self, step_s):
        sim = step_s["spill"] + step_s["in_range"] + step_s["brownout"]
        return {"sim_days_per_s": (3 * self.DAYS / sim, "1/s"),
                "soc_out_s": (step_s["soc_out"], "s")}


WORKLOADS = {w.name: w for w in (Loop1h, Classify10k, Soc30d)}
