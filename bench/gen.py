"""Seeded input generator for the stresswatch benchmark.

Everything the program under test reads is made here from ``--seed``, with
numpy, the standard library and the benchmark's own ``oracles`` (for the
Q16.16 rounding); nothing is imported from stresswatch,
so a change to the package cannot change its own inputs.

* ``loop-1h``      - 1 h ECG (256 Hz) and GSR (32 Hz) following a balanced
                     rest/low/high stress schedule, plus the true label of
                     every 30 s window.
* ``classify-10k`` - 10 000 feature rows, a 5-50-50-3 float net (A) with its
                     normalization sidecar, the same net quantized to Q16.16,
                     and the 81 032-weight net B.
* ``soc-30d``      - no files: the seed only picks the battery start charges
                     and the brownout rate, recorded in ``meta.json``.

ECG beats are Gaussian spikes added over a few samples around each beat, so
synthesis is linear in the recording length (summing every beat over the
whole trace, as the golden-fixture script does, is quadratic).

Run as a script: ``python3 bench/gen.py --workload loop-1h --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

import oracles

ECG_FS = 256
GSR_FS = 32
LOOP_SECONDS = 3600
SEGMENT_S = 300                # one stress level per 5 min segment
WINDOW_S = 30                  # the CLI's default window ...
STRIDE_S = 15                  # ... and its 50% overlap
FLAT_S = 45                    # one electrode-off stretch per recording
CLASSIFY_ROWS = 10_000
FRAC_BITS = 16
NET_A_SIZES = (5, 50, 50, 3)
NET_B_SIZES = (100,) + tuple(8 * p for p in range(1, 13) for _ in range(2)) + (8,)

# Per stress level (0 rest, 1 low, 2 high): mean RR interval and its beat to
# beat jitter in seconds, skin-conductance responses per minute and their
# height range in microsiemens.
RR_MEAN_S = (0.85, 0.72, 0.60)
RR_JITTER_S = (0.060, 0.030, 0.010)
SCR_PER_MIN = (1.0, 3.0, 6.0)
SCR_HEIGHT_US = ((0.08, 0.2), (0.2, 0.5), (0.5, 1.0))

# Feature-row distributions for classify-10k, per level:
# (rmssd_ms, sdsd_ms, nn50 per window, gsrh_uS, gsrl_s) means and spreads.
ROW_MEAN = (
    (85.0, 84.0, 20.0, 0.14, 1.9),
    (42.0, 41.0, 8.0, 0.35, 2.2),
    (14.0, 14.0, 1.0, 0.75, 2.6),
)
ROW_SD = (18.0, 18.0, 5.0, 0.08, 0.5)

WORKLOADS = ("loop-1h", "classify-10k", "soc-30d")


def stress_schedule(rng: np.random.Generator, seconds: int = LOOP_SECONDS) -> np.ndarray:
    """Level of each 5 min segment: every level equally often, shuffled so
    that neighbours differ. Equal shares keep the beat count, and so the
    detector's work, nearly the same for every seed."""
    n = seconds // SEGMENT_S
    base = np.arange(n) % 3
    while True:
        order = rng.permutation(base)
        if (np.diff(order) != 0).all():
            return order


def level_at(schedule: np.ndarray, t) -> np.ndarray:
    idx = np.minimum((np.asarray(t) // SEGMENT_S).astype(np.int64), schedule.size - 1)
    return schedule[idx]


def window_labels(schedule: np.ndarray, seconds: int = LOOP_SECONDS) -> np.ndarray:
    """True level of each analysis window: the level at its centre."""
    n_windows = (seconds - WINDOW_S) // STRIDE_S + 1
    centres = np.arange(n_windows) * STRIDE_S + WINDOW_S / 2
    return level_at(schedule, centres)


def synth_ecg(rng: np.random.Generator, schedule: np.ndarray, seconds: int = LOOP_SECONDS):
    n = seconds * ECG_FS
    t = np.arange(n) / ECG_FS
    x = 0.05 * np.sin(2 * np.pi * 0.25 * t) + rng.normal(0.0, 0.01, n)

    beats = []
    tb = 0.3
    while tb < seconds - 0.3:
        beats.append(tb)
        lvl = int(level_at(schedule, tb))
        rr = RR_MEAN_S[lvl] + RR_JITTER_S[lvl] * rng.standard_normal()
        tb += min(max(rr, 0.35), 1.5)
    beats = np.array(beats)
    amps = rng.uniform(0.9, 1.1, beats.size)

    sigma = 0.008
    half = int(math.ceil(5 * sigma * ECG_FS))
    idx = np.rint(beats * ECG_FS).astype(np.int64)[:, None] + np.arange(-half, half + 1)
    idx = np.clip(idx, 0, n - 1)
    spikes = amps[:, None] * np.exp(-0.5 * ((t[idx] - beats[:, None]) / sigma) ** 2)
    np.add.at(x, idx, spikes)

    # Electrode off: the trace holds one value, so any window inside this
    # stretch has no detectable beat and yields zero HRV features.
    start = int(rng.integers(60, seconds - 60 - FLAT_S)) * ECG_FS
    x[start:start + FLAT_S * ECG_FS] = x[start]
    return t, x


def synth_gsr(rng: np.random.Generator, schedule: np.ndarray, seconds: int = LOOP_SECONDS):
    """Skin-conductance responses (smooth rise, exponential recovery) on a
    slowly falling baseline; each response is added over its own span."""
    n = seconds * GSR_FS
    t = np.arange(n) / GSR_FS
    x = 3.0 - 0.0002 * t + rng.normal(0.0, 0.0003, n)
    tau = 4.0
    te = rng.uniform(0.0, 5.0)
    while te < seconds - 1:
        lvl = int(level_at(schedule, te))
        lo, hi = SCR_HEIGHT_US[lvl]
        height = rng.uniform(lo, hi)
        rise = rng.uniform(1.5, 3.0)
        i0 = int(math.ceil(te * GSR_FS))
        i1 = min(n, int((te + rise + 6 * tau) * GSR_FS) + 1)
        u = t[i0:i1] - te
        shape = np.where(
            u < rise,
            3 * (u / rise) ** 2 - 2 * (u / rise) ** 3,
            np.exp(-(u - rise) / tau),
        )
        x[i0:i1] += height * shape
        te += rng.exponential(60.0 / SCR_PER_MIN[lvl]) + rise
    return t, x


def write_series(path: Path, header: str, t: np.ndarray, x: np.ndarray) -> None:
    lines = [header]
    lines += [f"{ti:.12g},{xi:.10g}" for ti, xi in zip(t.tolist(), x.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def feature_rows(rng: np.random.Generator, n: int = CLASSIFY_ROWS):
    labels = rng.integers(0, 3, n)
    mean = np.array(ROW_MEAN)[labels]
    rows = np.abs(mean + rng.standard_normal((n, 5)) * np.array(ROW_SD))
    rows[:, 2] = np.rint(rows[:, 2])
    return rows, labels


def write_feature_rows(path: Path, rows: np.ndarray) -> None:
    lines = ["rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s"]
    for r in rows.tolist():
        lines.append(f"{r[0]:.12g},{r[1]:.12g},{int(r[2])},{r[3]:.12g},{r[4]:.12g}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def random_net(rng: np.random.Generator, sizes) -> list[np.ndarray]:
    """Float weights, uniform in [-0.5, 0.5], rounded to the 9 significant
    digits the model file keeps, so file and memory agree exactly."""
    mats = [rng.uniform(-0.5, 0.5, (a + 1, b)) for a, b in zip(sizes, sizes[1:])]
    return [np.array([float(f"{v:.9g}") for v in m.ravel()]).reshape(m.shape) for m in mats]


def write_net(path: Path, sizes, mats, frac_bits: int | None = None) -> None:
    lines = [
        "SWNET_FLO_1" if frac_bits is None else "SWNET_FIX_1",
        f"num_layers={len(sizes)}",
        "layer_sizes=" + " ".join(str(s) for s in sizes),
    ]
    if frac_bits is not None:
        lines.append(f"decimal_point={frac_bits}")
    for m in mats:
        for row in m.tolist():
            if frac_bits is None:
                lines.append(" ".join(f"{v:.9g}" for v in row))
            else:
                lines.append(" ".join(str(int(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_norm(path: Path, mean: np.ndarray, std: np.ndarray) -> None:
    doc = {"mean": [float(v) for v in mean], "std": [float(v) for v in std]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="ascii")


def gen_loop(rng: np.random.Generator, out: Path) -> dict:
    schedule = stress_schedule(rng)
    t, x = synth_ecg(rng, schedule)
    write_series(out / "ecg.csv", "time_s,ecg", t, x)
    t, x = synth_gsr(rng, schedule)
    write_series(out / "gsr.csv", "time_s,gsr_uS", t, x)
    labels = window_labels(schedule)
    (out / "labels.csv").write_text(
        "label\n" + "\n".join(str(int(v)) for v in labels) + "\n", encoding="ascii"
    )
    return {"schedule": schedule.tolist(), "windows": int(labels.size)}


def gen_classify(rng: np.random.Generator, out: Path) -> dict:
    rows, labels = feature_rows(rng)
    write_feature_rows(out / "rows.csv", rows)
    parsed = np.loadtxt(out / "rows.csv", delimiter=",", skiprows=1)
    mean = parsed.mean(axis=0)
    std = parsed.std(axis=0)
    a = random_net(rng, NET_A_SIZES)
    write_net(out / "a.net", NET_A_SIZES, a)
    write_norm(out / "a.net.norm.json", mean, std)
    a_q16, _ = oracles.quantize_net(oracles.Net(NET_A_SIZES, tuple(a), None), FRAC_BITS)
    write_net(out / "a_q16.net", NET_A_SIZES, a_q16.mats, FRAC_BITS)
    write_norm(out / "a_q16.net.norm.json", mean, std)
    write_net(out / "b.net", NET_B_SIZES, random_net(rng, NET_B_SIZES))
    return {"rows": int(rows.shape[0]), "row_labels": np.bincount(labels, minlength=3).tolist()}


def gen_soc(rng: np.random.Generator, out: Path) -> dict:
    return {
        "in_range_start": round(float(rng.uniform(0.15, 0.35)), 4),
        "brownout_start": round(float(rng.uniform(0.005, 0.02)), 4),
        "brownout_rate": round(float(rng.uniform(400.0, 600.0)), 3),
        "soc_out_start": round(float(rng.uniform(0.4, 0.8)), 4),
    }


GENERATORS = {"loop-1h": gen_loop, "classify-10k": gen_classify, "soc-30d": gen_soc}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload into ``out`` and return its meta
    record; ``meta.json`` is written last, so its presence marks a
    complete set."""
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    meta = GENERATORS[workload](rng, out)
    meta.update(workload=workload, seed=seed, gen_s=time.perf_counter() - t0)
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="ascii")
    return meta


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
