"""Dual-source energy harvesting against a small LiPo battery.

Two harvesters feed the device: a wrist-worn solar cell and a thermoelectric
generator (TEG) riding the skin-ambient temperature gradient. Their measured
intake powers (converter losses and quiescent draw already subtracted), the
``SOURCE_POWER_W`` table:

    solar   outdoor (~30 klx)      24.711 mW
            indoor  (~700 lx)       0.9 mW
    teg     warm-room               24.0 uW   (worst case)
            cool-room               55.5 uW
            cool-room-wind         155.4 uW

A scenario is a 24 h schedule of segments, each with a set of active
(source, condition) pairs. Two scenarios are built in:

* ``indoor-day``   - 6 h of indoor solar plus TEG worst case around the
                     clock; the pessimistic sustainability baseline.
* ``outdoor-1h``   - a single hour of outdoor sun, nothing else.

The state-of-charge simulator quantizes power to whole nanowatts and
advances one segment at a time in integer nanojoules, so its energy
bookkeeping is exact: intake - served - spilled always equals the charge
delta, to the last nanojoule. A day that repeats the one before it, exactly
or shifted by a whole number of nanojoules, is neither re-run nor stored
again: the result keeps each simulated day's records once, with the count of
days that repeat them, so its size follows the distinct days.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType

import numpy as np
import yaml

from .errors import ConfigError

DAY_S = 86400
SECONDS_PER_MINUTE = 60.0
MINUTES_PER_DAY = 1440.0

# read-only, so no caller can make a later scenario disagree with the
# built-in ones, which are built from it once per process
SOURCE_POWER_W = MappingProxyType({
    "solar": MappingProxyType({"outdoor": 24.711e-3, "indoor": 0.9e-3}),
    "teg": MappingProxyType({
        "warm-room": 24.0e-6,
        "cool-room": 55.5e-6,
        "cool-room-wind": 155.4e-6,
    }),
})

BATTERY_CAPACITY_MAH = 120.0
BATTERY_NOMINAL_V = 3.7


@dataclass(frozen=True)
class Segment:
    """A stretch of the day with a fixed set of active harvesters."""

    duration_s: float
    sources: tuple[tuple[str, str], ...] = ()  # (kind, condition) pairs

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ConfigError("segment duration must be positive")


@dataclass(frozen=True)
class HarvestScenario:
    """A 24 h schedule, checked when built: the segments must cover exactly
    24 h, each in at least one whole second, of known (kind, condition)
    pairs. ``plan`` holds one (whole seconds, intake nW) pair per segment."""

    name: str
    segments: tuple[Segment, ...]
    plan: tuple[tuple[int, int], ...] = field(init=False, compare=False)

    def __post_init__(self):
        # a non-finite duration fails here, before int(round(...)) below
        if abs(self.total_duration_s - DAY_S) > 1e-6:
            raise ConfigError(
                f"scenario {self.name!r} covers {self.total_duration_s} s, "
                f"daily budgets need exactly {DAY_S} s"
            )
        seconds = [int(round(seg.duration_s)) for seg in self.segments]
        # at least one whole second each, so at most 86 400 segments, whose
        # whole seconds then sum to within 0.09 s of the day, hence to it
        for seg, whole in zip(self.segments, seconds):
            if whole < 1 or abs(whole - seg.duration_s) > 1e-6:
                raise ConfigError(f"segment duration {seg.duration_s} s is not a whole second")
        object.__setattr__(self, "plan", tuple(
            (whole, int(round(segment_power_w(seg) * 1e9)))
            for seg, whole in zip(self.segments, seconds)))

    @property
    def total_duration_s(self) -> float:
        return float(sum(seg.duration_s for seg in self.segments))


@dataclass(frozen=True)
class BatteryState:
    """Stored energy in joules; 120 mAh at 3.7 V nominal = 1598.4 J."""

    capacity_j: float = BATTERY_CAPACITY_MAH * 3.6 * BATTERY_NOMINAL_V
    charge_j: float | None = None  # None: start full

    def __post_init__(self):
        if not 0 < self.capacity_j < math.inf:
            raise ConfigError("battery capacity must be positive and finite")
        if self.charge_j is None:
            object.__setattr__(self, "charge_j", self.capacity_j)
        if not 0 <= self.charge_j <= self.capacity_j:
            raise ConfigError("charge must lie in [0, capacity]")


@dataclass(frozen=True)
class SustainabilityReport:
    """Detections per day a scenario's intake can pay for on one platform."""

    daily_intake_j: float
    detection_energy_j: float
    max_detections_per_day: int        # floored
    max_detections_per_minute: float   # floored daily count / 1440
    detections_per_day_exact: float    # intake/energy before flooring


@dataclass(frozen=True)
class SocSimResult:
    days: int
    final_charge_j: float
    min_charge_j: float
    max_charge_j: float
    brownout: bool
    first_brownout_s: float | None
    intake_j: float
    served_j: float
    spilled_j: float
    unmet_j: float
    # one (first day, days, shift nJ, records) per simulated day: its (start second,
    # seconds, start nJ, gain nW, end nJ) record per segment, repeated as ``_walk`` says
    runs: tuple[tuple[int, int, int, tuple[tuple[int, int, int, int, int], ...]], ...]

    @property
    def segments(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Every day's records in time order, expanded from ``runs``."""
        return tuple(_walk(self.runs, 0, self.days))

    @property
    def highest_days(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """The records of each run's highest day: its last if it rises, else its first."""
        tops = (day + (days - 1) * (shift > 0) for day, days, shift, _ in self.runs)
        return tuple(rec for top in tops for rec in _walk(self.runs, top, top + 1))


def _walk(runs, first, last):
    """The records of days [first, last) of ``runs`` in time order: day j of
    a run holds the run's records j days and j shifts on."""
    for day, days, shift, recs in runs[bisect.bisect_right(runs, first, key=itemgetter(0)) - 1:
                                       bisect.bisect_left(runs, last, key=itemgetter(0))]:
        for j in range(max(first - day, 0), min(days, last - day)):
            at, up = j * DAY_S, j * shift
            yield from ((s + at, n, c0 + up, g, c1 + up) for s, n, c0, g, c1 in recs)


def indoor_day_scenario(solar_hours: float = 6.0, teg_hours: float = 24.0) -> HarvestScenario:
    """Indoor lighting for a few hours plus worst-case (warm-room) TEG wear;
    the rest of the day idle. TEG wear time must cover the solar window."""
    if not 0 < solar_hours <= teg_hours <= 24.0:
        raise ConfigError("need 0 < solar_hours <= teg_hours <= 24")
    segs = [Segment(solar_hours * 3600.0, (("solar", "indoor"), ("teg", "warm-room")))]
    if teg_hours > solar_hours:
        segs.append(Segment((teg_hours - solar_hours) * 3600.0, (("teg", "warm-room"),)))
    if teg_hours < 24.0:
        segs.append(Segment((24.0 - teg_hours) * 3600.0))
    return HarvestScenario("indoor-day", tuple(segs))


def outdoor_hour_scenario() -> HarvestScenario:
    """One hour of outdoor sun; the other 23 h idle."""
    return HarvestScenario("outdoor-1h", (Segment(3600.0, (("solar", "outdoor"),)),
                                          Segment(23 * 3600.0)))


@functools.lru_cache(maxsize=None)
def _stock_scenarios() -> tuple[HarvestScenario, ...]:
    return indoor_day_scenario(), outdoor_hour_scenario()


def builtin_scenarios() -> dict[str, HarvestScenario]:
    """The built-in scenarios by name.

    The two frozen scenarios are built once per process; each call returns
    a new dict of them, so a caller's change to it reaches no other call.
    """
    return {s.name: s for s in _stock_scenarios()}


def segment_power_w(seg: Segment) -> float:
    """Summed intake power of a segment's (kind, condition) pairs, in W."""
    total = 0.0
    for kind, condition in seg.sources:
        conditions = SOURCE_POWER_W.get(kind)
        if conditions is None:
            raise ConfigError(f"unknown source kind {kind!r}; choose from {sorted(SOURCE_POWER_W)}")
        if condition not in conditions:
            raise ConfigError(
                f"unknown {kind} condition {condition!r}; choose from {sorted(conditions)}"
            )
        total += conditions[condition]
    return total


def daily_intake(scenario: HarvestScenario) -> float:
    """Joules harvested over one 24 h pass of the schedule, summed exactly
    in nanojoules."""
    return sum(s * p for s, p in scenario.plan) / 1e9


def sustainable_rate(
    scenario: HarvestScenario,
    detection_energy_j: float,
) -> SustainabilityReport:
    """Highest detection rate the daily intake can pay for indefinitely."""
    if not detection_energy_j > 0:
        raise ConfigError("detection energy must be positive")
    intake = daily_intake(scenario)
    exact = intake / detection_energy_j
    per_day = int(math.floor(exact))
    return SustainabilityReport(
        daily_intake_j=intake,
        detection_energy_j=detection_energy_j,
        max_detections_per_day=per_day,
        max_detections_per_minute=per_day / MINUTES_PER_DAY,
        detections_per_day_exact=exact,
    )


def simulate_soc(
    scenario: HarvestScenario,
    battery: BatteryState,
    rate_per_minute: float,
    detection_energy_j: float,
    days: int = 1,
) -> SocSimResult:
    """State of charge over the scenario repeated daily, one segment at a time.

    The detection load is spread as constant average power (rate times
    detection energy over a minute). Charge is clamped to [0, capacity];
    intake beyond a full battery is counted as spilled, demand beyond an
    empty one as unmet. A second with unmet demand is a brownout. All
    bookkeeping is integer nanojoules, so the conservation identity
    final - initial == intake - served - spilled holds exactly, and
    ``charge_series_nj`` derives the charge of every second from ``runs``.

    Repeated days are derived, not re-simulated. A day that ends at the
    charge it started with repeats until the end of the run; a day that
    pins nothing at 0 or capacity repeats raised by its net change, for as
    many days as every segment end stays in [0, capacity]. The simulated
    day's run counts those days, and its records are stored once, so the
    time and size of the result follow the distinct days, not ``days``.
    """
    if days < 1:
        raise ConfigError("days must be >= 1")
    if not 0 <= rate_per_minute < math.inf:
        raise ConfigError("rate must be finite and >= 0")
    if not math.isfinite(detection_energy_j):
        raise ConfigError("detection energy must be finite")

    load, cap, c = (rate_per_minute * detection_energy_j * 1e9 / SECONDS_PER_MINUTE,
                    battery.capacity_j * 1e9, battery.charge_j * 1e9)
    # served and unmet are at most the total demand and every charge at most
    # the capacity, so each total below converts back to joules
    for quantity, value in (("detection load", load), ("battery capacity", cap),
                            ("start charge", c), ("total demand", load * DAY_S * days)):
        if not math.isfinite(value):
            raise ConfigError(f"{quantity} in nanojoules is not a finite float")
    load, cap, c = int(round(load)), int(round(cap)), int(round(c))
    c_init = c
    lo = hi = c
    intake = served = spilled = unmet = 0
    brownout_step = -1
    runs = []

    step = day = 0
    while day < days:
        day_start, before, records = c, (intake, served, spilled, unmet), []
        for seconds, p in scenario.plan:
            # Within a segment the net rate is constant, so charge moves
            # linearly and then pins at a bound: the unclamped endpoint gives
            # the unmet demand below 0 and the spill above capacity, and the
            # clamped endpoints are enough to track the extremes.
            gain = p - load
            end = c + gain * seconds
            if end < 0 and brownout_step < 0 and load > 0:
                brownout_step = step + c // -gain
            deficit = max(-end, 0)
            unmet += deficit
            served += load * seconds - deficit
            spilled += max(end - cap, 0)
            intake += p * seconds
            start = c
            c = min(max(end, 0), cap)
            records.append((step, seconds, start, gain, c))
            lo, hi = min(lo, c), max(hi, c)
            step += seconds
        # The next day starts where this one ended. If that is where this one
        # started, every remaining day repeats it. If no segment was pinned
        # (nothing spilled or unmet), the next k days repeat it raised by
        # ``shift`` each, for as long as every record end stays in
        # [0, capacity]. Otherwise the next day is simulated.
        shift = c - day_start
        ends = [r[4] for r in records]
        if shift == 0:
            k = days - day - 1
        elif (spilled, unmet) == before[2:]:
            k = min(days - day - 1,
                    (cap - max(ends)) // shift if shift > 0 else min(ends) // -shift)
        else:
            k = 0
        runs.append((day, k + 1, shift, tuple(records)))
        intake, served, spilled, unmet = (
            t + k * (t - t0) for t, t0 in zip((intake, served, spilled, unmet), before))
        lo, hi = min(lo, min(ends) + k * shift), max(hi, max(ends) + k * shift)
        c += k * shift
        day += k + 1
        step += k * DAY_S

    assert c - c_init == intake - served - spilled
    return SocSimResult(
        days=days,
        final_charge_j=c / 1e9,
        min_charge_j=lo / 1e9,
        max_charge_j=hi / 1e9,
        brownout=brownout_step >= 0,
        first_brownout_s=float(brownout_step) if brownout_step >= 0 else None,
        intake_j=intake / 1e9,
        served_j=served / 1e9,
        spilled_j=spilled / 1e9,
        unmet_j=unmet / 1e9,
        runs=tuple(runs),
    )


def require_int64_nj(records) -> None:
    """Raise ``ConfigError`` if a charge the segment records hold reaches
    2^63 nJ (about 9.2e9 J), past what int64 nJ can store."""
    peak = max((max(start, end) for _, _, start, _, end in records), default=0)
    if peak >= 2**63:
        raise ConfigError(f"int64 nJ cannot hold a charge of {peak / 1e9:g} J")


def charge_series_nj(sim: SocSimResult, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The charge (int64 nJ) at the end of each second ``start`` to ``stop``
    (default: every second) of ``sim``, derived from the window's days alone.

    A charge held of 2^63 nJ or more in the window is a ``ConfigError``,
    raised before the series is filled.
    """
    stop = sim.days * DAY_S if stop is None else stop
    if not 0 <= start <= stop <= sim.days * DAY_S:
        raise ValueError(f"window [{start}, {stop}) outside the {sim.days * DAY_S} s run")
    series = np.empty(stop - start, dtype=np.int64)
    records = [r for r in _walk(sim.runs, start // DAY_S, -(-stop // DAY_S))
               if start < r[0] + r[1] and r[0] < stop]
    require_int64_nj(records)
    for step, seconds, c0, gain, c1 in records:
        # seconds before the charge reaches a bound and stays there
        inside = seconds if gain == 0 else (c1 - c0) // gain
        # the segment's seconds [lo, hi) lie in the window: [lo, mid) on the
        # ramp, [mid, hi) pinned
        lo, hi = max(start - step, 0), min(stop - step, seconds)
        mid = min(max(inside, lo), hi)
        ramp = series[step + lo - start:step + mid - start]
        if ramp.size:  # else the charge pins at once, and gain may pass int64
            # second k of the segment (from 1) holds c0 + gain * k
            np.multiply(np.arange(lo + 1, mid + 1), gain, out=ramp)
            ramp += c0
        series[step + mid - start:step + hi - start] = c1
    return series


def scenario_from_config(path) -> HarvestScenario:
    """Read a scenario from a YAML document; every ``ConfigError`` it raises
    starts with ``path``.

    Schema::

        name: commute-day
        segments:
          - duration_h: 6          # or duration_s
            sources:
              - {kind: solar, condition: indoor}
              - {kind: teg,   condition: warm-room}
          - duration_h: 18
            sources: []            # or null, or absent: no harvesters
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ConfigError(f"{path}: expected a mapping with a 'segments' list")
    name = str(doc.get("name", "custom"))
    specs = []
    for i, entry in enumerate(doc["segments"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: segment {i} must be a mapping")
        if ("duration_s" in entry) == ("duration_h" in entry):
            raise ConfigError(
                f"{path}: segment {i} needs exactly one of duration_s/duration_h"
            )
        key = "duration_s" if "duration_s" in entry else "duration_h"
        try:
            if isinstance(entry[key], bool):  # float() would take true as 1
                raise TypeError
            duration = float(entry[key]) * (3600.0 if key == "duration_h" else 1.0)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{path}: segment {i} {key} must be a number") from None
        sources = [] if entry.get("sources") is None else entry["sources"]
        if not isinstance(sources, list):
            raise ConfigError(f"{path}: segment {i} sources must be a list")
        pairs = []
        for j, src in enumerate(sources):
            if not isinstance(src, dict) or "kind" not in src or "condition" not in src:
                raise ConfigError(
                    f"{path}: segment {i} source {j} needs 'kind' and 'condition'"
                )
            pairs.append((str(src["kind"]), str(src["condition"])))
        specs.append((duration, tuple(pairs)))
    if not specs:
        raise ConfigError(f"{path}: scenario has no segments")
    try:
        return HarvestScenario(name, tuple(Segment(d, pairs) for d, pairs in specs))
    except ConfigError as exc:  # a rule of the day or a segment, checked when built
        raise ConfigError(f"{path}: {exc}") from None
