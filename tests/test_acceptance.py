"""Acceptance gate: ten end-to-end checks over the whole package.

Each test verifies one headline guarantee at its stated tolerance and prints
a single PASS/FAIL line (capture is disabled so the lines appear in the live
pytest output). The checks are intentionally redundant with the per-module
suites; this file is the one-stop summary of what the package promises.
"""

import math
import time

import numpy as np
import pytest

from stresswatch import (
    BatteryState,
    FixedPointNet,
    QFormat,
    RRSeries,
    HarvestScenario,
    Segment,
    build_mlp,
    build_network_a,
    build_network_b,
    build_profiles,
    build_tanh_lut,
    builtin_calibration,
    calibration_report,
    daily_intake,
    derive_power,
    detection_energy,
    footprint,
    indoor_day_scenario,
    infer_fixed,
    infer_float,
    mse_gradients,
    mse_loss,
    nn50,
    quantize,
    quantize_inputs,
    rmssd,
    sdsd,
    simulate_soc,
    speedup,
    sustainable_rate,
    tanh_lut_eval,
    train,
)

I32_MIN, I32_MAX = -(2**31), 2**31 - 1


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    # keep a handle so check() can print past pytest's capture; the
    # acceptance lines should land in the terminal even on success
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_acceptance_01_network_dimensioning():
    t0 = time.perf_counter()
    a = build_network_a(seed=0)
    b = build_network_b(seed=0)
    dt = time.perf_counter() - t0
    ok = (
        a.layer_sizes == (5, 50, 50, 3)
        and a.neuron_count == 108
        and a.weight_count == 3003
        and b.layer_count == 26
        and b.neuron_count == 1356
        and b.weight_count == 81032
        and dt < 1.0
    )
    check(
        "01 network dimensioning",
        ok,
        f"A: 108 neurons/3003 weights, B: 26 layers/1356 neurons/81032 weights "
        f"({dt * 1e3:.1f} ms)",
    )


def test_acceptance_02_memory_footprint():
    fa = footprint(build_network_a(seed=0))
    fb = footprint(build_network_b(seed=0))
    ok = fa.total_bytes == 13772 and fb.total_bytes == 346032
    check(
        "02 memory footprint",
        ok,
        f"A={fa.total_bytes} B, B={fb.total_bytes} B "
        f"(~{fb.total_bytes / 1000:.0f} of the ~353 kB deployed image; "
        f"the gap is bookkeeping outside this model, see README)",
    )


def test_acceptance_03_calibration_table_and_speedups():
    cycles = {
        "cortex_m4": {"A": 30210, "B": 902763},
        "ibex": {"A": 40661, "B": 955588},
        "ri5cy_single": {"A": 22772, "B": 519354},
        "ri5cy_multi8": {"A": 6126, "B": 108316},
    }
    energy = {
        "cortex_m4": {"A": 5.1, "B": 153.8},
        "ibex": {"A": 1.3, "B": 31.5},
        "ri5cy_single": {"A": 2.9, "B": 65.6},
        "ri5cy_multi8": {"A": 1.2, "B": 21.6},
    }
    rows = calibration_report()
    table_ok = len(rows) == 8 and all(
        r["cycles"] == cycles[r["platform"]][r["network"]]
        and r["energy_uj"] == energy[r["platform"]][r["network"]]
        for r in rows
    )
    t = builtin_calibration()
    headline = {
        ("ri5cy_single", "A"): 1.3,
        ("ri5cy_single", "B"): 1.7,
        ("ri5cy_multi8", "A"): 4.9,
        ("ri5cy_multi8", "B"): 8.3,
    }
    worst = max(abs(speedup(t, p, n) - v) for (p, n), v in headline.items())
    ok = table_ok and worst <= 0.05
    check(
        "03 calibration table and speedups",
        ok,
        f"8/8 table rows verbatim; headline speedups within {worst:.3f} "
        f"of 1.3/1.7/4.9/8.3 (tolerance 0.05)",
    )


def test_acceptance_04_power_consistency():
    t = builtin_calibration()
    powers = derive_power(t)
    worst_p, worst = "", 0.0
    for p in t.platforms:
        per_net = [
            t.energy_uj[p][n] * 1e-6 * t.clock_hz[p] / t.cycles[p][n] for n in ("A", "B")
        ]
        mean = sum(per_net) / 2
        dev = max(abs(v - mean) for v in per_net) / mean
        if dev > worst:
            worst_p, worst = p, dev
    ok = set(powers) == set(t.platforms) and worst <= 0.03
    check(
        "04 constant-power consistency",
        ok,
        f"worst A/B disagreement {worst:.2%} on {worst_p} (limit 3%)",
    )


def test_acceptance_05_detection_energy():
    e_multi = detection_energy("ri5cy_multi8")
    e_m4 = detection_energy("cortex_m4")
    ok = abs(e_multi - 602.2e-6) < 1e-12 and abs(e_m4 - 606.1e-6) < 1e-12
    check(
        "05 per-detection energy",
        ok,
        f"ri5cy_multi8 {e_multi * 1e6:.1f} uJ, cortex_m4 {e_m4 * 1e6:.1f} uJ",
    )


def test_acceptance_06_daily_budget_and_sim_speed():
    intake = daily_intake(indoor_day_scenario())
    intake_ok = abs(intake / 21.44 - 1.0) <= 0.01
    report = sustainable_rate(indoor_day_scenario(), detection_energy("ri5cy_multi8"))
    rate_ok = report.max_detections_per_minute >= 24.0
    t0 = time.perf_counter()
    res = simulate_soc(
        indoor_day_scenario(),
        BatteryState(),
        report.max_detections_per_minute,
        report.detection_energy_j,
        days=7,
    )
    dt = time.perf_counter() - t0
    ok = intake_ok and rate_ok and not res.brownout and dt < 5.0
    check(
        "06 daily budget",
        ok,
        f"intake {intake:.4f} J (within 1% of 21.44), "
        f"{report.max_detections_per_minute:.3f} detections/min sustained, "
        f"7-day 1 s-step sim in {dt:.2f} s",
    )


def _oracle_fixed_forward(fp, x_q):
    """Unbounded-integer mirror of the fixed-point kernel (see quantizer tests)."""
    scale = 1 << fp.qformat.frac_bits
    knots = {}
    for k in range(129):
        q = int(math.floor(math.tanh(k / 32.0) * scale + 0.5))
        knots[k], knots[-k] = q, -q
    a = [int(v) for v in x_q]
    for w in fp.weights:
        a_ext = a + [scale]
        nxt = []
        for j in range(w.shape[1]):
            acc = sum(a_ext[i] * int(w[i, j]) for i in range(len(a_ext)))
            q = (acc + scale // 2) // scale if acc >= 0 else -((-acc + scale // 2) // scale)
            q = min(max(q, I32_MIN), I32_MAX)
            sign = -1 if q < 0 else 1
            aq = abs(q)
            if aq >= 4 * scale:
                q = sign * (scale - 1)
            else:
                idx, r = divmod(aq * 32, scale)
                num = knots[idx] * (scale - r) + knots[idx + 1] * r
                q = sign * ((num + scale // 2) // scale)
            nxt.append(q)
        a = nxt
    return [v / scale for v in a]


def test_acceptance_07_fixed_point_fidelity():
    fmt = QFormat(16)
    rng = np.random.default_rng(2024)
    worst = 0.0
    saturated = 0
    oracle_mismatches = 0
    for k in range(1000):
        net = build_network_a(seed=k)
        fp = quantize(net, fmt)
        saturated += fp.saturated_weights
        x = rng.uniform(-1.0, 1.0, size=5)
        got = infer_fixed(fp, x)
        worst = max(worst, float(np.max(np.abs(got - infer_float(net, x)))))
        if k % 40 == 0:
            # spot-check bit-exactness against the big-integer oracle
            if got.tolist() != _oracle_fixed_forward(fp, quantize_inputs(x, fmt)):
                oracle_mismatches += 1

    # adversarial extremes: accumulators overflow int64, results must still
    # match the unbounded-integer oracle exactly (no wraparound, ever)
    for trial in range(5):
        w = rng.integers(I32_MIN, I32_MAX, size=(5, 3), endpoint=True)
        w[:, 0] = I32_MAX
        fp = FixedPointNet((4, 3), (w,), fmt)
        x_q = np.full(4, I32_MAX)
        if infer_fixed(fp, x_q / fmt.scale).tolist() != _oracle_fixed_forward(fp, x_q):
            oracle_mismatches += 1

    xs = np.arange(-4 * fmt.scale + 1, 4 * fmt.scale)
    lut_dev = float(
        np.max(np.abs(tanh_lut_eval(xs, build_tanh_lut(fmt)) / fmt.scale
                      - np.tanh(xs / fmt.scale)))
    )
    ok = worst <= 1e-2 and oracle_mismatches == 0 and saturated == 0 and lut_dev <= 2e-4
    check(
        "07 fixed-point fidelity",
        ok,
        f"1000 nets at Q16.16: max |fixed-float| {worst:.2e} (limit 1e-2), "
        f"{oracle_mismatches} wraparound mismatches, LUT deviation "
        f"{lut_dev:.2e} (limit 2e-4)",
    )


def test_acceptance_08_feature_oracles():
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    worst_identity = 0.0
    for _ in range(10000):
        iv = rng.uniform(300.0, 1500.0, size=int(rng.integers(3, 40)))
        rr = RRSeries(iv)
        d = [iv[k + 1] - iv[k] for k in range(len(iv) - 1)]
        r0 = math.sqrt(sum(v * v for v in d) / len(d))
        m0 = sum(d) / len(d)
        s0 = math.sqrt(sum((v - m0) ** 2 for v in d) / len(d))
        n0 = sum(1 for v in d if abs(v) > 50.0)
        r, s, n = rmssd(rr), sdsd(rr), nn50(rr)
        if n != n0:
            worst_rel = float("inf")
            break
        worst_rel = max(
            worst_rel,
            abs(r - r0) / max(1.0, r0),
            abs(s - s0) / max(1.0, s0),
        )
        identity = abs(r * r - (s * s + float(np.mean(np.diff(iv))) ** 2))
        worst_identity = max(worst_identity, identity / max(1.0, r * r))
    ok = worst_rel <= 1e-12 and worst_identity <= 1e-10
    check(
        "08 feature oracles",
        ok,
        f"10000 series: worst oracle deviation {worst_rel:.2e} (limit 1e-12), "
        f"worst rmssd^2 = sdsd^2 + mean^2 residual {worst_identity:.2e} "
        f"(limit 1e-10)",
    )


def test_acceptance_09_training():
    # analytic gradients against central differences
    rng = np.random.default_rng(99)
    net = build_mlp([3, 5, 2], seed=1)
    data = [(rng.uniform(-1, 1, 3), rng.uniform(-0.8, 0.8, 2)) for _ in range(4)]
    grads = mse_gradients(net, data)
    eps = 1e-5
    worst = 0.0
    for li, g in enumerate(grads):
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                wplus = [w.copy() for w in net.weights]
                wminus = [w.copy() for w in net.weights]
                wplus[li][i, j] += eps
                wminus[li][i, j] -= eps
                lp = mse_loss(build_mlp([3, 5, 2], weights=wplus), data)
                lm = mse_loss(build_mlp([3, 5, 2], weights=wminus), data)
                fd = (lp - lm) / (2 * eps)
                worst = max(
                    worst, abs(g[i, j] - fd) / max(abs(g[i, j]), abs(fd), 1e-8)
                )

    xor = [
        (np.array([0.0, 0.0]), np.array([-0.9])),
        (np.array([0.0, 1.0]), np.array([0.9])),
        (np.array([1.0, 0.0]), np.array([0.9])),
        (np.array([1.0, 1.0]), np.array([-0.9])),
    ]
    trained = train(build_mlp([2, 4, 1], seed=0), xor, epochs=500, learning_rate=0.3)
    final = mse_loss(trained, xor)
    ok = worst <= 1e-4 and final < 0.05
    check(
        "09 training",
        ok,
        f"gradient check worst rel error {worst:.2e} (limit 1e-4), "
        f"toy-problem MSE {final:.4f} after 500 epochs (limit 0.05)",
    )


def test_acceptance_10_energy_conservation():
    rng = np.random.default_rng(777)
    conds = {"solar": ["outdoor", "indoor"],
             "teg": ["warm-room", "cool-room", "cool-room-wind"]}
    worst_residual = 0
    bounds_ok = True
    for trial in range(3):
        remaining = 86400
        segs = []
        while remaining > 0:
            dur = min(int(rng.integers(3600, 40000)), remaining)
            pairs = []
            for _ in range(int(rng.integers(0, 3))):
                kind = str(rng.choice(["solar", "teg"]))
                pairs.append((kind, str(rng.choice(conds[kind]))))
            segs.append(Segment(float(dur), tuple(pairs)))
            remaining -= dur
        scenario = HarvestScenario(f"random-{trial}", tuple(segs))
        cap = float(rng.uniform(2.0, 100.0))
        charge = float(rng.uniform(0.0, cap))
        rate = float(rng.uniform(0.0, 60.0))
        res = simulate_soc(
            scenario,
            BatteryState(capacity_j=cap, charge_j=charge),
            rate,
            602.2e-6,
            days=30,
        )
        residual = abs(
            (round(res.final_charge_j * 1e9) - round(charge * 1e9))
            - (round(res.intake_j * 1e9) - round(res.served_j * 1e9)
               - round(res.spilled_j * 1e9))
        )
        worst_residual = max(worst_residual, residual)
        cap_q = round(cap * 1e9) / 1e9
        if not (0.0 <= res.min_charge_j <= res.final_charge_j
                <= res.max_charge_j <= cap_q):
            bounds_ok = False
    ok = worst_residual == 0 and bounds_ok
    check(
        "10 energy conservation",
        ok,
        f"3 randomized 30-day runs: conservation residual {worst_residual} nJ "
        f"(must be 0), charge bounds respected",
    )
