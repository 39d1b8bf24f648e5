"""Calibrated runtime and energy model for the embedded targets.

Four execution targets are modeled from measured per-classification cycle
counts and energies of two reference networks (A: 5-50-50-3, 3003 weights;
B: 26 layers, 81032 weights):

* ``cortex_m4``     - single MCU core at 64 MHz
* ``ibex``          - small RISC-V control core at 100 MHz
* ``ri5cy_single``  - one DSP-extended RISC-V core at 100 MHz
* ``ri5cy_multi8``  - eight such cores in parallel at 100 MHz

Cycle cost is interpolated linearly in the weight count (the two reference
points determine the line exactly); energy divides out to a near-constant
active power per platform, which the calibration check enforces to 3%.

Calibration constants can be replaced from a YAML document; see
``load_calibration`` for the schema.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import yaml

from .errors import CalibrationError, ConfigError

NETWORK_NAMES = ("A", "B")

_CLOCK_HZ = {
    "cortex_m4": 64e6,
    "ibex": 100e6,
    "ri5cy_single": 100e6,
    "ri5cy_multi8": 100e6,
}
_CYCLES = {
    "cortex_m4": {"A": 30210, "B": 902763},
    "ibex": {"A": 40661, "B": 955588},
    "ri5cy_single": {"A": 22772, "B": 519354},
    "ri5cy_multi8": {"A": 6126, "B": 108316},
}
_ENERGY_UJ = {
    "cortex_m4": {"A": 5.1, "B": 153.8},
    "ibex": {"A": 1.3, "B": 31.5},
    "ri5cy_single": {"A": 2.9, "B": 65.6},
    "ri5cy_multi8": {"A": 1.2, "B": 21.6},
}
_NETWORK_WEIGHTS = {"A": 3003, "B": 81032}

POWER_CONSISTENCY_LIMIT = 0.03

# One detection's acquisition and feature costs. The two energies price a
# detection, and the duration caps the rate of disjoint acquisitions; the
# front-end powers are the measured figures behind the acquisition energy,
# kept for reference.
ACQUISITION_ENERGY_J = 600e-6
ACQUISITION_DURATION_S = 3.0
ECG_FRONTEND_POWER_W = 171e-6
GSR_FRONTEND_POWER_W = 30e-6
FEATURE_ENERGY_J = 1e-6

# no rounding: a sum of float spellings spans at most about 650 digits
_EXACT = decimal.Context(prec=decimal.MAX_PREC)


@dataclass(frozen=True)
class CalibrationTable:
    """Measured constants: clocks, per-classification cycles and energies.

    ``cycles`` and ``energy_uj`` are keyed [platform][network] with the two
    reference networks named "A" and "B"; ``network_weights`` records their
    weight counts, which the cycle fit interpolates between. Every rule a
    table must meet is checked here, once, however the table was built, so
    the functions that read a table only derive from it. The table keeps
    read-only copies of the mappings it is given, so neither a later change
    to them nor a write through the table can undo that check.

    Each platform's profile (its cycle fit and mean active power) is
    derived once, by the check that computes its parts, and kept read-only
    in ``profiles``, which takes no part in ``==``; ``profile`` looks one up.
    """

    clock_hz: Mapping[str, float]
    cycles: Mapping[str, Mapping[str, int]]
    energy_uj: Mapping[str, Mapping[str, float]]
    network_weights: Mapping[str, int]
    profiles: Mapping[str, PlatformProfile] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("clock_hz", "network_weights"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        for name in ("cycles", "energy_uj"):
            nested = {p: MappingProxyType(dict(v)) for p, v in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(nested))
        weights = self.network_weights
        if set(weights) != set(NETWORK_NAMES):
            raise ConfigError(f"network_weights must define exactly A and B, got {sorted(weights)}")
        if not all(0 < w < 2**63 for w in weights.values()):
            raise ConfigError(
                f"reference weight counts must be positive and below 2^63, got {weights}"
            )
        if weights["A"] == weights["B"]:
            raise CalibrationError("the two reference networks need distinct weight counts")
        if not self.cycles:
            raise ConfigError("a calibration table needs at least one platform")
        for p in self.cycles:
            if p not in self.clock_hz or not 0 < self.clock_hz[p] < math.inf:
                raise ConfigError(f"platform {p!r} needs a positive, finite clock_hz")
            for n in NETWORK_NAMES:
                if n not in self.cycles[p] or not 0 < self.cycles[p][n] < 2**63:
                    raise ConfigError(
                        f"platform {p!r} needs positive cycles below 2^63 for network {n}"
                    )
                if n not in self.energy_uj.get(p, {}) or not 0 < self.energy_uj[p][n] < math.inf:
                    raise ConfigError(
                        f"platform {p!r} needs positive, finite energy_uj for network {n}"
                    )
        profiles = {}
        # energy / time for both networks must back out one active power
        for p in self.cycles:
            c_a, c_b = self.cycles[p]["A"], self.cycles[p]["B"]
            alpha = (c_b - c_a) / (weights["B"] - weights["A"])
            model = CycleModel(alpha=alpha, delta=c_a - alpha * weights["A"])
            times = [self.cycles[p][n] / self.clock_hz[p] for n in NETWORK_NAMES]
            a, b = (self.energy_uj[p][n] * 1e-6 / t for n, t in zip(NETWORK_NAMES, times))
            # a subnormal clock makes a time inf, and a huge energy over a
            # short time a power or the sum of both; the rule below and the
            # mean active power cannot work with inf
            if not all(0 < v < math.inf for v in (*times, a, b, a + b)):
                raise ConfigError(
                    f"platform {p!r}: clock_hz, cycles and energy_uj must give each network "
                    f"a positive, finite time and active power"
                )
            if abs(a - b) > POWER_CONSISTENCY_LIMIT * (a + b):
                raise CalibrationError(
                    f"platform {p!r}: A/B power disagreement {abs(a - b) / (a + b):.2%} "
                    f"exceeds {POWER_CONSISTENCY_LIMIT:.0%}"
                )
            for n in NETWORK_NAMES:
                got = model.cycles(weights[n])
                if got != self.cycles[p][n]:
                    raise CalibrationError(
                        f"platform {p!r}: fit predicts {got} cycles for network {n}, "
                        f"table says {self.cycles[p][n]}"
                    )
            profiles[p] = PlatformProfile(p, self.clock_hz[p], (a + b) / 2, model)
        object.__setattr__(self, "profiles", MappingProxyType(profiles))

    @property
    def platforms(self) -> tuple[str, ...]:
        return tuple(self.cycles)

    def profile(self, platform: str) -> PlatformProfile:
        """The checked profile of ``platform``; a name the table lacks is a
        ``ConfigError``."""
        if platform not in self.profiles:
            raise ConfigError(
                f"unknown platform {platform!r}; choose from {sorted(self.profiles)}"
            )
        return self.profiles[platform]


@dataclass(frozen=True)
class CycleModel:
    """cycles(W) = alpha * W + delta, exact at both calibration points.

    delta can be negative (it is for cortex_m4); predictions clamp at zero,
    so extrapolation below ~3000 weights is a rough guide, not a fit.
    """

    alpha: float
    delta: float

    def cycles(self, weight_count: int) -> int:
        return max(0, int(round(self.alpha * weight_count + self.delta)))


@dataclass(frozen=True)
class PlatformProfile:
    name: str
    clock_hz: float
    active_power_w: float
    cycle_model: CycleModel


@dataclass(frozen=True)
class Prediction:
    cycles: int
    time_s: float
    energy_j: float


@functools.lru_cache(maxsize=None)
def builtin_calibration() -> CalibrationTable:
    """The stock table for the four modeled targets.

    Built and checked on the first call; every later call in the process
    returns that same read-only table.
    """
    return CalibrationTable(_CLOCK_HZ, _CYCLES, _ENERGY_UJ, _NETWORK_WEIGHTS)


def fit_cycle_model(table: CalibrationTable) -> dict[str, CycleModel]:
    """Per-platform two-point linear fit of cycles against weight count."""
    return {p: profile.cycle_model for p, profile in table.profiles.items()}


def derive_power(table: CalibrationTable) -> dict[str, float]:
    """Active power per platform from energy/time, averaged over A and B,
    which the table holds to within 3% of each other."""
    return {p: profile.active_power_w for p, profile in table.profiles.items()}


def build_profiles(table: CalibrationTable | None = None) -> dict[str, PlatformProfile]:
    """Fitted profiles for every platform in the table."""
    if table is None:
        table = builtin_calibration()
    return dict(table.profiles)


def predict(net, profile: PlatformProfile) -> Prediction:
    """Cycles, wall time and energy for one classification of ``net``.

    ``net`` is anything with a ``weight_count`` (float or fixed network).
    Energy is time x active power; at the calibration points the measured
    per-classification energies differ from this product by up to ~1%, so
    tables of the reference networks should quote the measured values.
    """
    cycles = profile.cycle_model.cycles(int(net.weight_count))
    time_s = cycles / profile.clock_hz
    return Prediction(cycles, time_s, time_s * profile.active_power_w)


def speedup(table: CalibrationTable, platform: str, network: str) -> float:
    """Cycle-count ratio cortex_m4/platform for one reference network."""
    for p in ("cortex_m4", platform):
        if p not in table.profiles:
            raise ConfigError(f"the calibration table has no platform {p!r}")
    return table.cycles["cortex_m4"][network] / table.cycles[platform][network]


def detection_energy(platform: str, table: CalibrationTable | None = None) -> float:
    """Joules for one detection: acquisition + features + classification.

    The acquisition energy is a measured whole-front-end figure for the 3 s
    sampling window; it is close to, but not exactly, the sum of the two
    front-end powers times the window (``ECG_FRONTEND_POWER_W``,
    ``GSR_FRONTEND_POWER_W`` and ``ACQUISITION_DURATION_S``).
    """
    if table is None:
        table = builtin_calibration()
    table.profile(platform)  # refuses a platform the table lacks
    # the terms' shortest decimal spellings, summed exactly and rounded once
    acq, feat, uj = (decimal.Decimal(repr(x)) for x in (
        ACQUISITION_ENERGY_J, FEATURE_ENERGY_J, table.energy_uj[platform]["A"]))
    return float(_EXACT.add(_EXACT.add(acq, feat), uj.scaleb(-6, _EXACT)))


def calibration_report(table: CalibrationTable | None = None) -> list[dict]:
    """One row per (platform, network): the measured constants plus the
    derived time and speedup against the M4 baseline."""
    if table is None:
        table = builtin_calibration()
    rows = []
    for p in table.cycles:
        for n in NETWORK_NAMES:
            cycles = table.cycles[p][n]
            rows.append({
                "platform": p,
                "network": n,
                "cycles": cycles,
                "time_us": cycles / table.clock_hz[p] * 1e6,
                "energy_uj": table.energy_uj[p][n],
                "speedup_vs_cortex_m4": speedup(table, p, n),
            })
    return rows


def _number(value) -> float:
    """A YAML number as a float; YAML booleans are not numbers."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """A YAML number as an int; a boolean or a fraction is not a count."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def load_calibration(path) -> CalibrationTable:
    """Read a calibration table from a YAML document.

    Schema::

        platforms:
          cortex_m4:
            clock_hz: 64000000
            cycles:    {A: 30210, B: 902763}
            energy_uj: {A: 5.1,   B: 153.8}
          ...
        networks:            # optional, defaults to the stock reference nets
          A: {weights: 3003}
          B: {weights: 81032}
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("platforms"), dict):
        raise ConfigError(f"{path}: expected a mapping with a 'platforms' section")

    clock_hz: dict[str, float] = {}
    cycles: dict[str, dict[str, int]] = {}
    energy: dict[str, dict[str, float]] = {}
    for p, entry in doc["platforms"].items():
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: platform {p!r} must be a mapping")
        try:
            clock_hz[p] = _number(entry["clock_hz"])
            cycles[p] = {n: _count(entry["cycles"][n]) for n in NETWORK_NAMES}
            energy[p] = {n: _number(entry["energy_uj"][n]) for n in NETWORK_NAMES}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: platform {p!r} is incomplete: {exc}") from None

    weights = dict(_NETWORK_WEIGHTS)
    if "networks" in doc:
        try:
            weights = {n: _count(doc["networks"][n]["weights"]) for n in NETWORK_NAMES}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: invalid 'networks' section: {exc}") from None

    try:
        return CalibrationTable(clock_hz, cycles, energy, weights)
    except ConfigError as exc:  # a rule of the table, checked when built
        raise type(exc)(f"{path}: {exc}") from None
