"""Dual-source energy harvesting against a small LiPo battery.

Two harvesters feed the device: a wrist-worn solar cell and a thermoelectric
generator (TEG) riding the skin-ambient temperature gradient. Their measured
intake powers (converter losses and quiescent draw already subtracted):

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
delta, to the last nanojoule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError

DAY_S = 86400
SECONDS_PER_MINUTE = 60.0
MINUTES_PER_DAY = 1440.0

SOLAR_CONDITIONS_W = {"outdoor": 24.711e-3, "indoor": 0.9e-3}
TEG_CONDITIONS_W = {
    "warm-room": 24.0e-6,
    "cool-room": 55.5e-6,
    "cool-room-wind": 155.4e-6,
}

BATTERY_CAPACITY_MAH = 120.0
BATTERY_NOMINAL_V = 3.7


@dataclass(frozen=True)
class SourceModel:
    """One harvester: a label and its measured intake power per condition."""

    kind: str
    condition_power_w: dict[str, float]

    def __post_init__(self):
        for cond, p in self.condition_power_w.items():
            if p < 0:
                raise ConfigError(f"{self.kind}/{cond}: negative intake power")

    def power_w(self, condition: str) -> float:
        try:
            return self.condition_power_w[condition]
        except KeyError:
            raise ConfigError(
                f"unknown {self.kind} condition {condition!r}; "
                f"choose from {sorted(self.condition_power_w)}"
            ) from None


def builtin_sources() -> dict[str, SourceModel]:
    return {
        "solar": SourceModel("solar", dict(SOLAR_CONDITIONS_W)),
        "teg": SourceModel("teg", dict(TEG_CONDITIONS_W)),
    }


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
    name: str
    segments: tuple[Segment, ...]

    @property
    def total_duration_s(self) -> float:
        return float(sum(seg.duration_s for seg in self.segments))


@dataclass(frozen=True)
class BatteryState:
    """Stored energy in joules; 120 mAh at 3.7 V nominal = 1598.4 J."""

    capacity_j: float = BATTERY_CAPACITY_MAH * 3.6 * BATTERY_NOMINAL_V
    charge_j: float = field(default=-1.0)

    def __post_init__(self):
        if not 0 < self.capacity_j < math.inf:
            raise ConfigError("battery capacity must be positive and finite")
        if self.charge_j < 0:  # default: start full
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
    charge_series_j: np.ndarray | None = None  # one sample per second


def indoor_day_scenario(
    solar_hours: float = 6.0,
    teg_hours: float = 24.0,
    teg_condition: str = "warm-room",
) -> HarvestScenario:
    """Indoor lighting for a few hours plus TEG wear; the rest of the day
    idle. TEG wear time must cover the solar window."""
    if not 0 < solar_hours <= teg_hours <= 24.0:
        raise ConfigError("need 0 < solar_hours <= teg_hours <= 24")
    segs = [Segment(solar_hours * 3600.0, (("solar", "indoor"), ("teg", teg_condition)))]
    if teg_hours > solar_hours:
        segs.append(Segment((teg_hours - solar_hours) * 3600.0, (("teg", teg_condition),)))
    if teg_hours < 24.0:
        segs.append(Segment((24.0 - teg_hours) * 3600.0))
    return HarvestScenario("indoor-day", tuple(segs))


def outdoor_hour_scenario(hours: float = 1.0) -> HarvestScenario:
    if not 0 < hours <= 24.0:
        raise ConfigError("need 0 < hours <= 24")
    segs = [Segment(hours * 3600.0, (("solar", "outdoor"),))]
    if hours < 24.0:
        segs.append(Segment((24.0 - hours) * 3600.0))
    return HarvestScenario("outdoor-1h", tuple(segs))


def builtin_scenarios() -> dict[str, HarvestScenario]:
    return {
        "indoor-day": indoor_day_scenario(),
        "outdoor-1h": outdoor_hour_scenario(),
    }


def segment_power_w(seg: Segment, sources: dict[str, SourceModel]) -> float:
    total = 0.0
    for kind, condition in seg.sources:
        if kind not in sources:
            raise ConfigError(
                f"unknown source kind {kind!r}; choose from {sorted(sources)}"
            )
        total += sources[kind].power_w(condition)
    return total


def _require_full_day(scenario: HarvestScenario) -> None:
    if abs(scenario.total_duration_s - DAY_S) > 1e-6:
        raise ConfigError(
            f"scenario {scenario.name!r} covers {scenario.total_duration_s} s, "
            f"daily budgets need exactly {DAY_S} s"
        )


def daily_intake(
    scenario: HarvestScenario, sources: dict[str, SourceModel] | None = None
) -> float:
    """Joules harvested over one 24 h pass of the schedule."""
    _require_full_day(scenario)
    if sources is None:
        sources = builtin_sources()
    return float(
        sum(seg.duration_s * segment_power_w(seg, sources) for seg in scenario.segments)
    )


def sustainable_rate(
    scenario: HarvestScenario,
    detection_energy_j: float,
    sources: dict[str, SourceModel] | None = None,
) -> SustainabilityReport:
    """Highest detection rate the daily intake can pay for indefinitely."""
    if not detection_energy_j > 0:
        raise ConfigError("detection energy must be positive")
    intake = daily_intake(scenario, sources)
    exact = intake / detection_energy_j
    per_day = int(math.floor(exact))
    return SustainabilityReport(
        daily_intake_j=intake,
        detection_energy_j=detection_energy_j,
        max_detections_per_day=per_day,
        max_detections_per_minute=per_day / MINUTES_PER_DAY,
        detections_per_day_exact=exact,
    )


def _day_plan_nw(
    scenario: HarvestScenario, sources: dict[str, SourceModel]
) -> list[tuple[int, int]]:
    """(whole seconds, intake in nW) per segment; must tile exactly 24 h."""
    plan = []
    for seg in scenario.segments:
        seconds = int(round(seg.duration_s))
        if abs(seconds - seg.duration_s) > 1e-6:
            raise ConfigError(
                f"segment duration {seg.duration_s} s is not a whole second"
            )
        plan.append((seconds, int(round(segment_power_w(seg, sources) * 1e9))))
    if sum(s for s, _ in plan) != DAY_S:
        raise ConfigError("scenario segments must tile exactly 24 h of whole seconds")
    return plan


def simulate_soc(
    scenario: HarvestScenario,
    battery: BatteryState,
    rate_per_minute: float,
    detection_energy_j: float,
    days: int = 1,
    sources: dict[str, SourceModel] | None = None,
    record: bool = False,
) -> SocSimResult:
    """State of charge over the scenario repeated daily, one segment at a time.

    The detection load is spread as constant average power (rate times
    detection energy over a minute). Charge is clamped to [0, capacity];
    intake beyond a full battery is counted as spilled, demand beyond an
    empty one as unmet. A second with unmet demand is a brownout. All
    bookkeeping is integer nanojoules, so the conservation identity
    final - initial == intake - served - spilled holds exactly, and the
    recorded series holds the charge at the end of every second.
    """
    if days < 1:
        raise ConfigError("days must be >= 1")
    if not 0 <= rate_per_minute < math.inf:
        raise ConfigError("rate must be finite and >= 0")
    if not math.isfinite(detection_energy_j):
        raise ConfigError("detection energy must be finite")
    _require_full_day(scenario)
    if sources is None:
        sources = builtin_sources()
    plan = _day_plan_nw(scenario, sources)

    load = int(round(rate_per_minute * detection_energy_j * 1e9 / SECONDS_PER_MINUTE))
    cap = int(round(battery.capacity_j * 1e9))
    c = int(round(battery.charge_j * 1e9))
    c_init = c
    lo = hi = c
    intake = served = spilled = unmet = 0
    brownout_step = -1
    series = np.empty(days * DAY_S, dtype=np.int64) if record else None

    step = 0
    for _ in range(days):
        for seconds, p in plan:
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
            if series is not None:
                # seconds before the charge reaches a bound and stays there
                inside = seconds if gain == 0 else min(
                    seconds, (c if gain < 0 else cap - c) // abs(gain))
                series[step:step + inside] = c + gain * np.arange(1, inside + 1)
                series[step + inside:step + seconds] = 0 if gain < 0 else cap
            c = min(max(end, 0), cap)
            lo, hi = min(lo, c), max(hi, c)
            step += seconds

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
        charge_series_j=None if series is None else series / 1e9,
    )


def scenario_from_config(path) -> HarvestScenario:
    """Read a scenario from a YAML document.

    Schema::

        name: commute-day
        segments:
          - duration_h: 6          # or duration_s
            sources:
              - {kind: solar, condition: indoor}
              - {kind: teg,   condition: warm-room}
          - duration_h: 18
            sources: []
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ConfigError(f"{path}: expected a mapping with a 'segments' list")
    name = str(doc.get("name", "custom"))
    segments = []
    for i, entry in enumerate(doc["segments"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: segment {i} must be a mapping")
        if ("duration_s" in entry) == ("duration_h" in entry):
            raise ConfigError(
                f"{path}: segment {i} needs exactly one of duration_s/duration_h"
            )
        duration = (
            float(entry["duration_s"])
            if "duration_s" in entry
            else float(entry["duration_h"]) * 3600.0
        )
        pairs = []
        for j, src in enumerate(entry.get("sources") or []):
            if not isinstance(src, dict) or "kind" not in src or "condition" not in src:
                raise ConfigError(
                    f"{path}: segment {i} source {j} needs 'kind' and 'condition'"
                )
            pairs.append((str(src["kind"]), str(src["condition"])))
        segments.append(Segment(duration, tuple(pairs)))
    if not segments:
        raise ConfigError(f"{path}: scenario has no segments")
    return HarvestScenario(name, tuple(segments))
