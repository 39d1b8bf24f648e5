"""Tests of the benchmark's own parts: the seeded generator, the oracles the
checks rely on, and the span arithmetic.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import oracles as orc  # noqa: E402
import spans  # noqa: E402
from workloads import Checks, _check_classify  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "meta.json"}


def test_generator_is_deterministic_per_seed(tmp_path):
    gen.generate("classify-10k", 7, tmp_path / "a")
    gen.generate("classify-10k", 7, tmp_path / "b")
    gen.generate("classify-10k", 8, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["rows.csv"] != _files(tmp_path / "c")["rows.csv"]


def test_recording_is_deterministic_and_labels_every_window():
    seconds = 900

    def recording(seed):
        rng = np.random.default_rng(seed)
        schedule = gen.stress_schedule(rng, seconds)
        return schedule, gen.synth_ecg(rng, schedule, seconds), gen.synth_gsr(rng, schedule, seconds)

    s1, (t1, x1), (g1, y1) = recording(3)
    s2, (t2, x2), (g2, y2) = recording(3)
    assert np.array_equal(s1, s2) and np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(x1, recording(4)[1][1])
    assert sorted(np.bincount(s1, minlength=3)) == [1, 1, 1]
    assert (np.diff(s1) != 0).all()
    assert t1.size == seconds * gen.ECG_FS and g1.size == seconds * gen.GSR_FS
    windows = orc.window_count(t1.size, gen.ECG_FS, gen.WINDOW_S, gen.STRIDE_S)
    assert gen.window_labels(s1, seconds).size == windows == 59


def _small_fixed_net(seed: int) -> orc.Net:
    rng = np.random.default_rng(seed)
    sizes = (5, 7, 3)
    mats = tuple(rng.uniform(-0.5, 0.5, (a + 1, b)) for a, b in zip(sizes, sizes[1:]))
    return orc.quantize_net(orc.Net(sizes, mats, None), 16)[0]


def _write_classify_csv(path: Path, outputs: np.ndarray) -> None:
    lines = ["row,label,margin"]
    for i, out in enumerate(outputs):
        label, margin = orc.label_margin(out)
        lines.append(f"{i},{label},{margin:.9g}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def test_fixed_oracle_catches_a_corrupted_margin(tmp_path):
    net = _small_fixed_net(0)
    x = np.random.default_rng(1).normal(size=(50, 5))
    out = orc.fixed_forward(net, x) / 65536.0
    csv = tmp_path / "classify.csv"
    _write_classify_csv(csv, out)
    good = Checks()
    _check_classify(good, "fixed", csv, out, exact=True)
    assert good.failed == 0

    # one output off by one unit in the last place of the format
    corrupted = out.copy()
    corrupted[17, int(np.argmax(out[17]))] += 1 / 65536.0
    _write_classify_csv(csv, corrupted)
    bad = Checks()
    _check_classify(bad, "fixed", csv, out, exact=True)
    assert bad.failed == 1 and "1 of 50 rows" in bad.results[0][2]


def test_fixed_oracle_matches_the_package_kernel():
    from stresswatch import nn_core
    from stresswatch.quantizer import QFormat, infer_fixed, quantize

    net = _small_fixed_net(2)
    float_net = nn_core.build_mlp(net.sizes, weights=[m / 65536.0 for m in net.mats])
    fp = quantize(float_net, QFormat(16))
    x = np.random.default_rng(3).normal(scale=3.0, size=(40, 5))
    want = np.array([infer_fixed(fp, row) for row in x])
    assert np.array_equal(orc.fixed_forward(net, x) / 65536.0, want)


def test_fixed_oracle_takes_the_exact_path_when_int64_could_wrap():
    sizes = (4, 2)
    w = np.full((5, 2), orc.INT32_MAX, dtype=np.int64)
    net = orc.Net(sizes, (w,), 16)
    x = np.full((1, 4), 30000.0)
    # every sum is ~5 * 2^31 * 2^31, far beyond int64: it must saturate, not wrap
    assert (orc.fixed_forward(net, x) == 65535).all()


def _soc_per_second(plan, load, cap, c, days):
    """Reference: the documented per-second update, one step at a time.
    Returns the totals and the charge after every step."""
    intake = served = spilled = unmet = 0
    series = []
    first = None
    lo = hi = c
    step = 0
    for _ in range(days):
        for n, p in plan:
            for _ in range(n):
                z = c + p - load
                if z < 0:
                    unmet += -z
                    served += c + p
                    first = step if first is None and load > 0 else first
                    c = 0
                elif z > cap:
                    served += load
                    spilled += z - cap
                    c = cap
                else:
                    served += load
                    c = z
                intake += p
                series.append(c)
                step += 1
            lo, hi = min(lo, c), max(hi, c)
    return orc.SocTotals(c, lo, hi, intake, served, spilled, unmet, first), series


@pytest.mark.parametrize("seed", range(30))
def test_soc_oracle_matches_the_per_second_update(seed):
    rnd = random.Random(seed)
    oracle = orc.SocOracle("indoor-day", 1.0, 1e-3)
    oracle.plan = [(rnd.randint(1, 40), rnd.randint(0, 900)) for _ in range(rnd.randint(1, 4))]
    oracle.load = rnd.randint(0, 600)
    oracle.cap = rnd.randint(1, 5000)
    oracle.c0 = rnd.randint(0, oracle.cap)
    day = sum(n for n, _ in oracle.plan)
    probes = [rnd.randrange(3 * day) for _ in range(5)]
    got, at = oracle.run(3, probes)
    want, series = _soc_per_second(oracle.plan, oracle.load, oracle.cap, oracle.c0, 3)
    assert got == want
    assert at == {s: series[s] for s in probes}


def test_self_time_is_span_minus_children():
    # parent 0..10 with children 1..3 and 4..8; grandchild 5..6 inside 4..8
    recorded = [
        ("cli.features", 0.0, 10.0, -1, 1),
        ("biosignal_features.extract_window_features", 1.0, 3.0, 0, 1),
        ("biosignal_features.extract_window_features", 4.0, 8.0, 0, 1),
        ("biosignal_features.detect_r_peaks", 5.0, 6.0, 2, 1),
        ("cli.features", 20.0, 21.0, -1, 2),   # another pass: ignored
    ]
    agg = spans.aggregate(recorded, 1)
    assert agg["cli.features"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert agg["biosignal_features.extract_window_features"] == {
        "calls": 2, "s": 6.0, "self_s": 5.0}
    assert agg["biosignal_features.detect_r_peaks"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_tracer_sees_calls_through_names_bound_at_import():
    import stresswatch
    import stresswatch.cli
    from stresswatch.quantizer import infer_fixed as original

    fp = stresswatch.quantize(stresswatch.build_network_a(seed=0))
    tracer = spans.Tracer()
    tracer.install(stresswatch)
    tracer.pass_id = 1
    try:
        stresswatch.cli.infer_fixed(fp, np.zeros(5))
    finally:
        tracer.uninstall()
    assert stresswatch.cli.infer_fixed is original
    agg = spans.aggregate(tracer.spans, 1)
    assert agg["quantizer.infer_fixed"]["calls"] == 1
    assert agg["quantizer.tanh_lut_eval"]["calls"] == 3
    assert agg["quantizer.infer_fixed"]["self_s"] < agg["quantizer.infer_fixed"]["s"]
