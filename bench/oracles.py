"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports stresswatch. Each oracle is written from the documented
behaviour (README, module docstrings), not from the package's code paths:

* ``parse_net``       - the SWNET text model format;
* ``fixed_forward``   - the Q-format forward pass in exact integers;
* ``float_forward``   - the float64 forward pass;
* ``SocOracle``       - the state-of-charge simulation, one constant-power
                        segment at a time instead of one second at a time;
* ``window_count``    - the closed form for the number of analysis windows.

Checks compare against these with stated tolerances, never against stored
output digests, so a correct change to the program is not a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
LUT_KNOTS_PER_UNIT = 32        # knots at spacing 1/32 over [-4, 4]
LUT_HALF = 128                 # knots on each side of zero

DAY_S = 86400


@dataclass(frozen=True)
class Net:
    sizes: tuple[int, ...]
    mats: tuple[np.ndarray, ...]   # (size[l] + 1, size[l + 1]), bias row last
    frac_bits: int | None          # None for a float model


def parse_net(path: Path) -> Net:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    fixed = lines[0].strip() == "SWNET_FIX_1"
    if not fixed and lines[0].strip() != "SWNET_FLO_1":
        raise ValueError(f"{path}: unknown model tag {lines[0]!r}")
    sizes = tuple(int(v) for v in lines[2].split("=", 1)[1].split())
    frac_bits = int(lines[3].split("=", 1)[1]) if fixed else None
    tokens = " ".join(lines[4 if fixed else 3:]).split()
    values = [int(v) for v in tokens] if fixed else [float(v) for v in tokens]
    mats, pos = [], 0
    for a, b in zip(sizes, sizes[1:]):
        n = (a + 1) * b
        mats.append(np.array(values[pos:pos + n], dtype=np.int64 if fixed else np.float64)
                    .reshape(a + 1, b))
        pos += n
    if pos != len(values):
        raise ValueError(f"{path}: {len(values)} weights for a {sizes} net")
    return Net(sizes, tuple(mats), frac_bits)


def load_norm(path: Path):
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    return np.array(doc["mean"], dtype=np.float64), np.array(doc["std"], dtype=np.float64)


def round_half_away(v: np.ndarray) -> np.ndarray:
    """Nearest integer, ties away from zero, as float64."""
    a = np.floor(np.abs(v) + 0.5)
    return np.where(v < 0, -a, a)


def quantize_net(net: Net, frac_bits: int) -> tuple[Net, int]:
    """(fixed-point copy, number of weights clamped to the 32-bit range)."""
    mats, saturated = [], 0
    for m in net.mats:
        q = round_half_away(m * float(1 << frac_bits))
        saturated += int(np.count_nonzero((q < INT32_MIN) | (q > INT32_MAX)))
        mats.append(np.clip(q, INT32_MIN, INT32_MAX).astype(np.int64))
    return Net(net.sizes, tuple(mats), frac_bits), saturated


def dequantize(net: Net) -> Net:
    scale = float(1 << net.frac_bits)
    return Net(net.sizes, tuple(m / scale for m in net.mats), None)


def tanh_knots(frac_bits: int) -> list[int]:
    """tanh(k/32) rounded to the format at k = -128..128, odd by mirroring."""
    scale = 1 << frac_bits
    pos = [int(math.floor(math.tanh(k / LUT_KNOTS_PER_UNIT) * scale + 0.5))
           for k in range(LUT_HALF + 1)]
    return [-v for v in pos[:0:-1]] + pos


def _tanh_fixed(z: np.ndarray, frac_bits: int) -> np.ndarray:
    """Interpolated table tanh on 32-bit integers; every intermediate stays
    below 2^40, so int64 is exact here."""
    scale = 1 << frac_bits
    knots = np.array(tanh_knots(frac_bits), dtype=np.int64)
    a = np.abs(z)
    t = np.minimum(a, 4 * scale - 1) * LUT_KNOTS_PER_UNIT
    k = t // scale
    r = t - k * scale
    y = (knots[LUT_HALF + k] * (scale - r) + knots[LUT_HALF + k + 1] * r + scale // 2) // scale
    y = np.where(a >= 4 * scale, scale - 1, y)
    return np.where(z < 0, -y, y)


def quantize_inputs(x: np.ndarray, frac_bits: int) -> np.ndarray:
    q = round_half_away(x * float(1 << frac_bits))
    if (q < INT32_MIN).any() or (q > INT32_MAX).any():
        raise ValueError("input outside the 32-bit fixed-point range")
    return q.astype(np.int64)


def fixed_forward(net: Net, x: np.ndarray) -> np.ndarray:
    """Integer outputs (rows x outputs) of the fixed-point net, exact.

    The bias input is 1.0 in the format; each neuron's sum is rescaled by
    the format scale rounding half away from zero, clamped to 32 bits and
    put through the table tanh. Sums use int64 only when the largest
    possible |sum| provably fits, and Python integers otherwise, so
    nothing can wrap.
    """
    scale = 1 << net.frac_bits
    half = scale // 2
    a = quantize_inputs(np.atleast_2d(x), net.frac_bits)
    for w in net.mats:
        a_ext = np.hstack([a, np.full((a.shape[0], 1), scale, dtype=np.int64)])
        bound = int(np.abs(a_ext).max()) * int(np.abs(w).sum(axis=0).max()) + half
        if bound < 2**63:
            acc = a_ext @ w
        else:
            acc = a_ext.astype(object) @ w.astype(object)
        mag = (np.abs(acc) + half) // scale
        z = np.clip(np.where(acc < 0, -mag, mag), INT32_MIN, INT32_MAX).astype(np.int64)
        a = _tanh_fixed(z, net.frac_bits)
    return a


def float_forward(net: Net, x: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for w in net.mats:
        a = np.tanh(a @ w[:-1] + w[-1])
    return a


def label_margin(out: np.ndarray) -> tuple[int, float]:
    """Decision and margin as classify reports them: the first largest
    output, and the gap between the two largest."""
    vals = [float(v) for v in out]
    best = max(vals)
    order = sorted(vals, reverse=True)
    return vals.index(best), order[0] - order[1]


def read_classify_csv(path: Path) -> tuple[list[int], list[str]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if lines[0] != "row,label,margin":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    labels, margins = [], []
    for i, line in enumerate(lines[1:]):
        row, label, margin = line.split(",")
        if int(row) != i:
            raise ValueError(f"{path}: row {row} out of order")
        labels.append(int(label))
        margins.append(margin)
    return labels, margins


def window_count(samples: int, fs: int, window_s: int, stride_s: int) -> int:
    """Windows of window_s at stride_s that fit in samples / fs seconds."""
    if samples < window_s * fs:
        return 0
    return (samples - window_s * fs) // (stride_s * fs) + 1


# -- state of charge ---------------------------------------------------------
# Powers and energies of the documented harvest model (README, "Harvesting
# and the battery"), detection cost of ri5cy_multi8 (600 + 1 + 1.2 uJ).
SOLAR_W = {"outdoor": 24.711e-3, "indoor": 0.9e-3}
TEG_W = {"warm-room": 24.0e-6}
SCENARIOS = {
    "indoor-day": ((6 * 3600, SOLAR_W["indoor"] + TEG_W["warm-room"]),
                   (18 * 3600, TEG_W["warm-room"])),
    "outdoor-1h": ((3600, SOLAR_W["outdoor"]), (23 * 3600, 0.0)),
}
DETECTION_J = 602.2e-6
BATTERY_J = 120.0 * 3.6 * 3.7


def daily_intake_j(scenario: str) -> float:
    return sum(s * p for s, p in SCENARIOS[scenario])


def sustainable_rate_per_min(scenario: str, detection_j: float = DETECTION_J) -> float:
    return math.floor(daily_intake_j(scenario) / detection_j) / 1440.0


@dataclass
class SocTotals:
    final: int
    lo: int
    hi: int
    intake: int
    served: int
    spilled: int
    unmet: int
    first_brownout: int | None


class SocOracle:
    """Integer-nanojoule battery model, advanced a whole segment at a time.

    Within a segment net power is constant, so charge moves linearly until
    it pins at 0 or at capacity; the step that crosses a bound and the
    energy spilled or left unmet follow from one floor division.
    """

    def __init__(self, scenario: str, rate_per_min: float, detection_j: float,
                 start_fraction: float = 1.0):
        self.plan = [(s, int(round(p * 1e9))) for s, p in SCENARIOS[scenario]]
        self.load = int(round(rate_per_min * detection_j * 1e9 / 60.0))
        self.cap = int(round(BATTERY_J * 1e9))
        self.c0 = int(round(BATTERY_J * start_fraction * 1e9))

    def run(self, days: int, probes: list[int] = ()) -> tuple[SocTotals, dict[int, int]]:
        """Totals after ``days``, and the charge after each probed step
        (0-based second index)."""
        load, cap = self.load, self.cap
        c = lo = hi = self.c0
        intake = served = spilled = unmet = 0
        first = None
        pending = sorted(set(probes))
        at: dict[int, int] = {}
        step = 0
        for _ in range(days):
            for n, p in self.plan:
                g = p - load
                while pending and pending[0] < step + n:
                    k = pending.pop(0) - step + 1
                    at[k + step - 1] = min(c + k * g, cap) if g >= 0 else max(c + k * g, 0)
                intake += p * n
                if g >= 0:
                    served += load * n
                    if c + n * g > cap:
                        spilled += c + n * g - cap
                        c = cap
                    else:
                        c += n * g
                else:
                    ok = c // -g               # steps that leave charge >= 0
                    if n <= ok:
                        served += load * n
                        c += n * g
                    else:
                        c_ok = c + ok * g
                        served += load * ok + c_ok + p * (n - ok)
                        unmet += -(c_ok + g) - g * (n - ok - 1)
                        if first is None and load > 0:
                            first = step + ok
                        c = 0
                lo, hi = min(lo, c), max(hi, c)
                step += n
        return SocTotals(c, lo, hi, intake, served, spilled, unmet, first), at


def to_nj(joules: float) -> int:
    return int(round(joules * 1e9))
