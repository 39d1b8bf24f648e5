"""Tests for harvesting scenarios, sustainability math and the SoC loop.

Intake figures are recomputed in-test from the measured source powers
(0.9 mW indoor solar, 24.711 mW outdoor, 24/55.5/155.4 uW TEG), so the
builtin scenarios are pinned against hand arithmetic. The SoC simulator is
checked on its integer bookkeeping: conservation to the nanojoule, charge
bounds, closed-form brownout timing on constructed scenarios, and field-for-
field agreement with a reference that steps the battery one second at a time
and with one that simulates every day of a run instead of deriving repeated
days.
"""

import dataclasses
import math
from operator import delitem, setitem

import numpy as np
import pytest
import yaml

from stresswatch import (
    BatteryState,
    ConfigError,
    HarvestScenario,
    Segment,
    SocSimResult,
    builtin_scenarios,
    charge_series_nj,
    daily_intake,
    detection_energy,
    indoor_day_scenario,
    outdoor_hour_scenario,
    scenario_from_config,
    segment_power_w,
    simulate_soc,
    sustainable_rate,
)
from stresswatch.harvest_sim import SOURCE_POWER_W, require_int64_nj

DAY_S = 86400


def nj(x_j):
    """Joules -> integer nanojoules (exact for the magnitudes used here)."""
    return int(round(x_j * 1e9))


def dark_scenario():
    return HarvestScenario("dark", (Segment(float(DAY_S)),))


TEG_CONDITIONS = SOURCE_POWER_W["teg"]


def random_day(rng):
    conds = {"solar": ["outdoor", "indoor"], "teg": list(TEG_CONDITIONS)}
    remaining = DAY_S
    segs = []
    while remaining > 0:
        dur = min(int(rng.integers(1800, 30000)), remaining)
        pairs = []
        for _ in range(int(rng.integers(0, 3))):
            kind = str(rng.choice(["solar", "teg"]))
            pairs.append((kind, str(rng.choice(conds[kind]))))
        segs.append(Segment(float(dur), tuple(pairs)))
        remaining -= dur
    return HarvestScenario("random-day", tuple(segs))


# ---------------------------------------------------------------------------
# intake arithmetic

def test_indoor_day_intake():
    # 6 h of (0.9 mW + 24 uW) plus 18 h of 24 uW
    want = 6 * 3600 * (0.9e-3 + 24e-6) + 18 * 3600 * 24e-6
    got = daily_intake(indoor_day_scenario())
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(21.5136, abs=1e-9)


def test_indoor_day_with_23h_teg():
    want = 6 * 3600 * (0.9e-3 + 24e-6) + 17 * 3600 * 24e-6
    got = daily_intake(indoor_day_scenario(teg_hours=23.0))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(21.4272, abs=1e-9)


def test_outdoor_hour_intake():
    got = daily_intake(outdoor_hour_scenario())
    assert got == pytest.approx(3600 * 24.711e-3, rel=1e-12)
    assert got == pytest.approx(88.9596, abs=1e-9)


def test_dark_day_has_zero_intake():
    assert daily_intake(dark_scenario()) == 0.0


def test_intake_requires_full_day():
    with pytest.raises(ConfigError, match="86400"):
        daily_intake(HarvestScenario("short", (Segment(23 * 3600.0),)))


def test_scenario_rules_are_checked_when_built():
    # an infinite duration fails the 24 h total, before any rounding
    with pytest.raises(ConfigError, match="86400"):
        HarvestScenario("endless", (Segment(math.inf),))
    with pytest.raises(ConfigError, match="unknown teg condition 'sauna'"):
        HarvestScenario("sauna", (Segment(float(DAY_S), (("teg", "sauna"),)),))
    day = indoor_day_scenario()
    assert day.plan == ((21600, 924000), (64800, 24000))
    assert daily_intake(day) == 21.5136
    # the plan is derived from the segments: not an argument, not compared
    assert day == HarvestScenario("indoor-day", day.segments)
    with pytest.raises(TypeError):
        HarvestScenario("indoor-day", day.segments, day.plan)


def test_segment_power_combines_sources():
    seg = Segment(3600.0, (("solar", "outdoor"), ("teg", "cool-room-wind")))
    got = segment_power_w(seg)
    assert got == pytest.approx(24.711e-3 + 155.4e-6, rel=1e-12)


def test_unknown_sources_rejected():
    with pytest.raises(ConfigError) as kind:
        segment_power_w(Segment(60.0, (("wind", "gale"),)))
    assert str(kind.value) == "unknown source kind 'wind'; choose from ['solar', 'teg']"
    with pytest.raises(ConfigError) as condition:
        segment_power_w(Segment(60.0, (("teg", "sauna"),)))
    assert str(condition.value) == (
        "unknown teg condition 'sauna'; choose from ['cool-room', 'cool-room-wind', 'warm-room']"
    )


def test_source_power_table_is_read_only():
    # a write would make later scenarios disagree with the cached built-ins
    writes = [
        (setitem, SOURCE_POWER_W, "wind", {"gale": 1.0}),
        (setitem, SOURCE_POWER_W["teg"], "warm-room", 1.0),
        (setitem, SOURCE_POWER_W["solar"], "lamp", 1e-3),
        (delitem, SOURCE_POWER_W["solar"], "indoor"),
    ]
    for write, *args in writes:
        with pytest.raises(TypeError, match="mappingproxy"):
            write(*args)
    assert SOURCE_POWER_W["teg"]["warm-room"] == 24.0e-6
    assert indoor_day_scenario().plan == builtin_scenarios()["indoor-day"].plan


def test_scenario_construction_guards():
    with pytest.raises(ConfigError):
        indoor_day_scenario(solar_hours=0.0)
    with pytest.raises(ConfigError):
        indoor_day_scenario(solar_hours=8.0, teg_hours=6.0)
    with pytest.raises(ConfigError):
        Segment(0.0)
    assert set(builtin_scenarios()) == {"indoor-day", "outdoor-1h"}
    assert builtin_scenarios()["indoor-day"].total_duration_s == DAY_S


def test_builtin_scenarios_are_built_once_and_not_shared():
    first = builtin_scenarios()
    assert first == {"indoor-day": indoor_day_scenario(), "outdoor-1h": outdoor_hour_scenario()}
    stock = dict(first)
    first["indoor-day"] = indoor_day_scenario(solar_hours=3.0)
    del first["outdoor-1h"]
    first["commute"] = indoor_day_scenario(solar_hours=1.0)
    again = builtin_scenarios()
    assert again == stock and again is not first
    # the frozen scenarios themselves are shared
    assert all(again[name] is stock[name] for name in stock)


# ---------------------------------------------------------------------------
# sustainability

def test_sustainable_rate_on_the_small_core_cluster():
    report = sustainable_rate(indoor_day_scenario(), 602.2e-6)
    assert report.max_detections_per_day == 35725
    assert report.max_detections_per_minute == pytest.approx(24.809, abs=5e-4)
    assert report.detection_energy_j == 602.2e-6
    # cross-check against the energy model end to end
    assert detection_energy("ri5cy_multi8") == pytest.approx(602.2e-6, rel=1e-9)


def test_sustainable_rate_on_the_m4():
    report = sustainable_rate(indoor_day_scenario(), 606.1e-6)
    assert report.max_detections_per_day == 35495
    assert report.max_detections_per_minute == pytest.approx(24.649, abs=5e-4)


def test_sustainability_invariants():
    rng = np.random.default_rng(5)
    for _ in range(25):
        energy = float(rng.uniform(1e-5, 5e-3))
        scenario = random_day(rng)
        r = sustainable_rate(scenario, energy)
        assert r.max_detections_per_day == math.floor(r.detections_per_day_exact)
        assert r.max_detections_per_minute == r.max_detections_per_day / 1440.0
        assert r.max_detections_per_day <= r.detections_per_day_exact
        assert r.detections_per_day_exact < r.max_detections_per_day + 1
        assert r.daily_intake_j == daily_intake(scenario)


def test_sustainable_rate_rejects_bad_energy():
    with pytest.raises(ConfigError):
        sustainable_rate(indoor_day_scenario(), 0.0)


# ---------------------------------------------------------------------------
# state-of-charge simulation

def test_soc_zero_load_monotone():
    battery = BatteryState(capacity_j=100.0, charge_j=10.0)
    res = simulate_soc(indoor_day_scenario(), battery, 0.0, 602.2e-6)
    assert not res.brownout
    assert res.served_j == 0.0
    assert res.unmet_j == 0.0
    assert np.all(np.diff(charge_series_nj(res)) >= 0)
    assert res.final_charge_j == pytest.approx(
        min(100.0, 10.0 + res.intake_j - res.spilled_j), abs=1e-9
    )


def test_soc_conservation_and_bounds_randomized():
    rng = np.random.default_rng(7)
    for trial in range(8):
        scenario = random_day(rng)
        cap = float(rng.uniform(1.0, 50.0))
        charge = float(rng.uniform(0.0, cap))
        battery = BatteryState(capacity_j=cap, charge_j=charge)
        rate = float(rng.uniform(0.0, 100.0))
        res = simulate_soc(scenario, battery, rate, 602.2e-6, days=2)
        # exact energy conservation, reconstructed in integer nanojoules
        assert nj(res.final_charge_j) - nj(charge) == (
            nj(res.intake_j) - nj(res.served_j) - nj(res.spilled_j)
        )
        cap_q = nj(cap) / 1e9
        assert 0.0 <= res.min_charge_j <= res.final_charge_j <= res.max_charge_j <= cap_q
        assert res.served_j + res.unmet_j == pytest.approx(
            res.days * DAY_S * (nj(rate * 602.2e-6 / 60.0)) / 1e9, abs=1e-9
        )
        if trial < 3:
            series = charge_series_nj(res) / 1e9
            assert series.shape == (2 * DAY_S,)
            assert series[-1] == res.final_charge_j
            # segment-endpoint extremes match the full per-second trajectory
            # (the simulator rounds the starting charge to whole nanojoules)
            start = nj(charge) / 1e9
            assert res.min_charge_j == min(start, float(series.min()))
            assert res.max_charge_j == max(start, float(series.max()))


def per_second_soc(scenario, battery, rate_per_minute, detection_energy_j, days):
    """Reference simulator: the same integer-nanojoule battery stepped one
    second at a time. ``simulate_soc`` must agree with it on every field but
    ``runs``, and ``charge_series_nj`` with its int64 nJ series."""
    plan = [
        (int(round(seg.duration_s)), int(round(segment_power_w(seg) * 1e9)))
        for seg in scenario.segments
    ]
    load = int(round(rate_per_minute * detection_energy_j * 1e9 / 60.0))
    cap = nj(battery.capacity_j)
    c = nj(battery.charge_j)
    lo = hi = c
    intake = served = spilled = unmet = 0
    first = None
    series = []
    step = 0
    for _ in range(days):
        for seconds, p in plan:
            gain = p - load
            for _ in range(seconds):
                z = c + gain
                if z < 0:
                    unmet += -z
                    served += c + p
                    if first is None and load > 0:
                        first = step
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
    result = SocSimResult(
        days=days,
        final_charge_j=c / 1e9,
        min_charge_j=lo / 1e9,
        max_charge_j=hi / 1e9,
        brownout=first is not None,
        first_brownout_s=None if first is None else float(first),
        intake_j=intake / 1e9,
        served_j=served / 1e9,
        spilled_j=spilled / 1e9,
        unmet_j=unmet / 1e9,
        runs=(),
    )
    return result, np.array(series, dtype=np.int64)


def assert_matches_per_second(scenario, battery, rate, energy, days):
    got = simulate_soc(scenario, battery, rate, energy, days=days)
    want, want_series = per_second_soc(scenario, battery, rate, energy, days)
    for f in dataclasses.fields(SocSimResult):
        if f.name != "runs":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    series = charge_series_nj(got)
    assert series.dtype == np.int64
    assert np.array_equal(series, want_series)
    return got


def choppy_day(rng):
    """A random day of mostly short segments, many only a few seconds long."""
    conds = {"solar": ["outdoor", "indoor"], "teg": list(TEG_CONDITIONS)}
    remaining = DAY_S
    segs = []
    while remaining > 0:
        longest = int(rng.choice([3, 60, 5000, 40000]))
        dur = min(int(rng.integers(1, longest + 1)), remaining)
        pairs = []
        for _ in range(int(rng.integers(0, 3))):
            kind = str(rng.choice(["solar", "teg"]))
            pairs.append((kind, str(rng.choice(conds[kind]))))
        segs.append(Segment(float(dur), tuple(pairs)))
        remaining -= dur
    return HarvestScenario("choppy-day", tuple(segs))


@pytest.mark.parametrize("seed", range(9))
def test_soc_matches_per_second_reference_randomized(seed):
    rng = np.random.default_rng(100 + seed)
    cap = float(rng.uniform(1e-3, 5.0))
    # every pairing of an empty, full or part-charged start with no load, a
    # load near the intake (up to ~1 mW) and an overdraw (up to ~30 mW)
    charge = [0.0, cap, float(rng.uniform(0.0, cap))][seed // 3]
    rate = [0.0, float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 3000.0))][seed % 3]
    assert_matches_per_second(
        choppy_day(rng), BatteryState(capacity_j=cap, charge_j=charge), rate,
        602.2e-6, days=2,
    )


def test_soc_matches_per_second_reference_on_a_day_two_brownout():
    # 30/min outruns the indoor day by ~4.5 J a day: a 20 J battery rides out
    # day 1 and runs dry during the TEG-only stretch of day 2
    res = assert_matches_per_second(
        indoor_day_scenario(), BatteryState(capacity_j=20.0), 30.0, 602.2e-6,
        days=3,
    )
    assert DAY_S + 6 * 3600 < res.first_brownout_s < 2 * DAY_S


def test_soc_matches_per_second_reference_from_empty():
    # no charge and a net drain: the very first second is already unmet
    res = assert_matches_per_second(
        dark_scenario(), BatteryState(capacity_j=1.0, charge_j=0.0), 60.0, 1e-3,
        days=2,
    )
    assert res.first_brownout_s == 0.0


def test_soc_matches_per_second_reference_full_and_idle():
    # a full battery with no load spills the sunny hour and holds still
    # (zero net rate) through the dark rest of the day
    res = assert_matches_per_second(
        outdoor_hour_scenario(), BatteryState(capacity_j=3.0), 0.0, 602.2e-6,
        days=2,
    )
    assert res.final_charge_j == res.min_charge_j == 3.0
    assert res.spilled_j == res.intake_j


def per_day_soc(scenario, battery, rate_per_minute, detection_energy_j, days):
    """Reference simulator: every day of the run stepped one segment at a
    time, none of them derived from another, so each is a run of one day.
    ``simulate_soc`` derives repeated days instead and must agree with it on
    every record of ``segments`` and on every field but ``runs``."""
    plan = [
        (int(round(seg.duration_s)), int(round(segment_power_w(seg) * 1e9)))
        for seg in scenario.segments
    ]
    load = int(round(rate_per_minute * detection_energy_j * 1e9 / 60.0))
    cap = nj(battery.capacity_j)
    c = c_init = nj(battery.charge_j)
    lo = hi = c
    intake = served = spilled = unmet = 0
    brownout_step = -1
    records = []
    step = 0
    for _ in range(days):
        for seconds, p in plan:
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
        runs=tuple((d, 1, 0, tuple(records[d * len(plan):(d + 1) * len(plan)]))
                   for d in range(days)),
    )


def assert_matches_per_day(scenario, battery, rate, energy, days):
    got = simulate_soc(scenario, battery, rate, energy, days=days)
    want = per_day_soc(scenario, battery, rate, energy, days)
    assert got.segments == want.segments
    assert dataclasses.replace(got, runs=()) == dataclasses.replace(want, runs=())
    # each run holds one day's records, and starts on its first day
    assert all(recs[0][0] == first * DAY_S and len(recs) == len(scenario.plan)
               for first, _, _, recs in got.runs)
    return got


def day_end_charges(sim):
    """The charge in nJ at the end of each day, from the segment records."""
    per_day = len(sim.segments) // sim.days
    return [rec[4] for rec in sim.segments[per_day - 1::per_day]]


def first_fixed_day(sim, start_nj):
    """1-based index of the first day that ends at the charge it started
    with, or None."""
    starts = [start_nj, *day_end_charges(sim)]
    return next((d for d in range(1, sim.days + 1) if starts[d] == starts[d - 1]), None)


def few_segment_day(rng):
    """A day of 1-9 segments cut at random whole seconds, each with up to
    two random harvesters."""
    pairs = [(kind, cond) for kind, conds in SOURCE_POWER_W.items() for cond in conds]
    cuts = sorted(set(rng.integers(1, DAY_S, int(rng.integers(0, 9))).tolist()))
    edges = [0, *cuts, DAY_S]
    return HarvestScenario("few-segment-day", tuple(
        Segment(float(b - a), tuple(pairs[i] for i in rng.choice(
            len(pairs), int(rng.integers(0, 3)), replace=False)))
        for a, b in zip(edges, edges[1:])
    ))


@pytest.mark.parametrize("seed", range(6))
def test_soc_matches_per_day_reference_randomized(seed):
    # rates from idle to 50x what the day can pay for (and near it, where the
    # charge drifts slowly either way), capacities from 1e-6 to 100x stock,
    # empty, full and part-charged starts, 1 to 400 days
    rng = np.random.default_rng(500 + seed)
    builtins = list(builtin_scenarios().values())
    stock = BatteryState().capacity_j
    energy = 602.2e-6
    for _ in range(80):
        scenario = (builtins[int(rng.integers(len(builtins)))] if rng.random() < 0.3
                    else few_segment_day(rng))
        report = sustainable_rate(scenario, energy)
        rate = [0.0, report.max_detections_per_minute,
                report.detections_per_day_exact / 1440 * float(rng.uniform(0.9, 1.1)),
                report.detections_per_day_exact / 1440 * float(rng.uniform(0.0, 50.0)),
                ][int(rng.integers(4))]
        cap = stock * 10 ** float(rng.uniform(-6, 2))
        charge = [0.0, cap, float(rng.uniform(0.0, cap))][int(rng.integers(3))]
        assert_matches_per_day(scenario, BatteryState(capacity_j=cap, charge_j=charge),
                               rate, energy, int(rng.integers(1, 401)))


def test_soc_drift_lands_exactly_on_capacity():
    # 10/min on the indoor day nets about +12.8 J a day, peaking at the end
    # of the sunny stretch: size the battery so that day 5's peak is exactly
    # full, and day 6 spills
    scenario = indoor_day_scenario()
    probe = simulate_soc(scenario, BatteryState(capacity_j=1e3, charge_j=0.0), 10.0, 602.2e-6)
    peak, shift = max(rec[4] for rec in probe.segments), probe.segments[-1][4]
    assert 0 < shift < peak
    cap = peak + 4 * shift
    battery = BatteryState(capacity_j=cap / 1e9, charge_j=0.0)
    assert nj(battery.capacity_j) == cap
    five = assert_matches_per_day(scenario, battery, 10.0, 602.2e-6, days=5)
    assert five.segments[-2][4] == cap
    assert five.spilled_j == 0.0
    seven = assert_matches_per_day(scenario, battery, 10.0, 602.2e-6, days=7)
    assert seven.spilled_j > 0.0
    assert seven.segments[:10] == five.segments


@pytest.mark.parametrize("rest", [0, 12345], ids=["lands-on-0", "ends-above-0"])
def test_soc_drift_toward_empty_browns_out_on_the_exact_second(rest):
    # 40/min outruns the indoor day by about 13.2 J a day. From 5 days' worth
    # plus ``rest`` nJ the charge drifts down unpinned for five days, ending
    # at ``rest``; day 6 climbs through the sunny stretch and then runs dry
    scenario = indoor_day_scenario()
    probe = simulate_soc(scenario, BatteryState(capacity_j=1e3, charge_j=100.0), 40.0, 602.2e-6)
    (_, sunny, _, up, _), (_, _, _, down, _) = probe.segments
    shift = probe.segments[-1][4] - nj(100.0)
    assert up > 0 > down and shift < 0
    start = 5 * -shift + rest
    battery = BatteryState(charge_j=start / 1e9)
    assert nj(battery.charge_j) == start
    res = assert_matches_per_day(scenario, battery, 40.0, 602.2e-6, days=8)
    assert day_end_charges(res)[:6] == [start + d * shift for d in range(1, 6)] + [0]
    assert res.first_brownout_s == 5 * DAY_S + sunny + (rest + up * sunny) // -down


@pytest.mark.parametrize("start_j, fixed_day", [(0.0, 1), (5.0, 2), (20.0, 3)])
def test_soc_fixed_point_first_reached_on_day(start_j, fixed_day):
    # 40/min on the indoor day: from empty every day climbs and drains back to
    # 0; from 5 J day 1 already runs dry; from 20 J day 1 drifts down unpinned
    # and day 2 runs dry
    res = assert_matches_per_day(indoor_day_scenario(), BatteryState(charge_j=start_j),
                                 40.0, 602.2e-6, days=30)
    assert first_fixed_day(res, nj(start_j)) == fixed_day
    assert res.brownout


@pytest.mark.parametrize("days", [1, 2, 30, 400])
@pytest.mark.parametrize("scenario", [indoor_day_scenario(), outdoor_hour_scenario(),
                                      dark_scenario()], ids=lambda s: s.name)
@pytest.mark.parametrize("start", [0.0, 0.3, None], ids=["empty", "part", "full"])
def test_soc_matches_per_day_reference_without_load(scenario, start, days):
    battery = BatteryState(capacity_j=50.0, charge_j=None if start is None else 50.0 * start)
    res = assert_matches_per_day(scenario, battery, 0.0, 602.2e-6, days)
    assert res.served_j == res.unmet_j == 0.0


@pytest.mark.parametrize("days", [1, 3, 10])
def test_soc_matches_per_day_reference_with_zero_gain_segments(days):
    # 1440/min at 1 uJ is a 24 uW load, exactly the warm-room TEG: the 18 h
    # TEG-only stretch has zero net gain, and the day drifts up +19.44 J until
    # a 100 J battery fills on day 6
    battery = BatteryState(capacity_j=100.0, charge_j=0.0)
    res = assert_matches_per_day(indoor_day_scenario(), battery, 1440.0, 1e-6, days)
    assert [gain for _, _, _, gain, _ in res.segments[:2]] == [900000, 0]
    # and a dark day without load holds any charge still
    idle = assert_matches_per_day(dark_scenario(), battery, 0.0, 1e-6, days)
    assert {gain for _, _, _, gain, _ in idle.segments} == {0}


@pytest.mark.parametrize("regime", ["spill", "in-range", "brownout"])
def test_soc_matches_per_day_reference_over_a_century(regime):
    indoor, outdoor = indoor_day_scenario(), outdoor_hour_scenario()
    scenario, battery, rate = {
        "spill": (indoor, BatteryState(), sustainable_rate(indoor, 602.2e-6)
                  .max_detections_per_minute),
        "in-range": (outdoor, BatteryState(charge_j=0.25 * 1598.4),
                     sustainable_rate(outdoor, 602.2e-6).max_detections_per_minute),
        "brownout": (indoor, BatteryState(charge_j=0.01 * 1598.4), 500.0),
    }[regime]
    res = assert_matches_per_day(scenario, battery, rate, 602.2e-6, days=36500)
    assert (res.spilled_j > 0, res.unmet_j > 0) == {
        "spill": (True, False), "in-range": (False, False), "brownout": (False, True)}[regime]


def test_soc_result_holds_each_simulated_day_once():
    # the stock spill regime: day 1 ends below full, day 2 ends where it
    # started, and every later day repeats it, so a million days store the
    # same few runs as thirty
    scenario = indoor_day_scenario()
    rate = sustainable_rate(scenario, 602.2e-6).max_detections_per_minute
    month, million = (simulate_soc(scenario, BatteryState(), rate, 602.2e-6, days=days)
                      for days in (30, 10**6))
    assert len(million.runs) == len(month.runs) <= 3
    assert [run[3] for run in million.runs] == [run[3] for run in month.runs]
    assert million.runs[-1][:3] == (1, 10**6 - 1, 0)
    assert million.spilled_j > 0


def test_charge_series_refuses_a_charge_beyond_int64_nanojoules():
    # 1.4e10 J is 1.4e19 nJ, past int64: a full battery cannot be stored, an
    # empty one that stays far below the limit can
    full = simulate_soc(indoor_day_scenario(), BatteryState(capacity_j=1.4e10), 24.0, 602.2e-6)
    with pytest.raises(ConfigError, match="int64"):
        charge_series_nj(full)
    empty = BatteryState(capacity_j=1.4e10, charge_j=0.0)
    res = simulate_soc(indoor_day_scenario(), empty, 24.0, 602.2e-6)
    series = charge_series_nj(res)
    assert series[-1] == nj(res.final_charge_j)
    assert series.max() == nj(res.max_charge_j)


def assert_windows_match(sim, windows):
    """``charge_series_nj(sim, a, b)`` is the full series' ``[a:b]``."""
    full = charge_series_nj(sim)
    assert full.size == sim.days * DAY_S
    for a, b in windows:
        assert np.array_equal(charge_series_nj(sim, a, b), full[a:b]), (a, b)


def window_edges(sim):
    """Windows cut at, just before and just after every segment boundary,
    inside a segment, across one, and covering all or none of the run."""
    total = sim.days * DAY_S
    cuts = sorted({c for step, *_ in sim.segments for c in (step - 1, step, step + 1)
                   if 0 <= c <= total} | {total})
    windows = [(0, total), (0, 0), (total, total), (0, 1), (total - 1, total)]
    windows += [(a, b) for a, b in zip(cuts, cuts[1:])]
    windows += [(a, min(a + 7, total)) for a in cuts]
    return windows


def test_charge_series_windows_inside_a_segment_longer_than_the_window():
    # indoor-day from 60 %: a 6 h rise and an 18 h fall, each far longer than
    # a window, so each window starts deep inside its segment's ramp
    res = simulate_soc(indoor_day_scenario(), BatteryState(capacity_j=1598.4, charge_j=959.04),
                       24.0, 602.2e-6, days=3)
    assert all(gain != 0 for _, _, _, gain, _ in res.segments)
    windows = [(100, 200), (21599, 21601), (30000, 30001), (50000, 115536),
               (DAY_S - 5, DAY_S + 5), (2 * DAY_S + 21000, 3 * DAY_S)]
    assert_windows_match(res, windows + window_edges(res))


@pytest.mark.parametrize("regime", ["spill", "brownout", "pinned", "drift"])
def test_charge_series_windows_over_spill_brownout_and_pinned_stretches(regime):
    if regime == "spill":        # fills within the sunny hour, then sits full
        args = (outdoor_hour_scenario(), BatteryState(capacity_j=3.0, charge_j=1.0), 0.0)
    elif regime == "brownout":   # empties partway into day 2, then sits empty
        args = (indoor_day_scenario(), BatteryState(capacity_j=20.0), 30.0)
    elif regime == "pinned":     # full with a net gain: pinned from the first second
        args = (indoor_day_scenario(), BatteryState(capacity_j=5.0), 1.0)
    else:                        # +12.8 J a day from empty: day 2 repeats day 1 raised,
        # and day 3 fills the battery, so a run of its own starts at 2 * DAY_S
        args = (indoor_day_scenario(), BatteryState(capacity_j=40.0, charge_j=0.0), 10.0)
    res = simulate_soc(*args, 602.2e-6, days=3)
    full = charge_series_nj(res)
    reached = {"spill": res.spilled_j > 0 and (full[:3600] == full[3599]).sum() > 1,
               "brownout": res.brownout and full[-1] == 0,
               "pinned": full[0] == full[21599] == nj(5.0),
               "drift": [run[:2] for run in res.runs] == [(0, 2), (2, 1)]
               and res.runs[0][2] > 0}
    assert reached[regime]
    # every window edge where a ramp ends at a bound, and its neighbours
    bounds = np.flatnonzero(np.diff(full) == 0)
    stops = [int(x) for x in bounds[:: max(len(bounds) // 20, 1)]]
    assert_windows_match(res, window_edges(res) + [(a, a + 50) for a in stops if a + 50 <= full.size])


@pytest.mark.parametrize("seed", range(3))
def test_charge_series_random_windows_over_a_choppy_day(seed):
    rng = np.random.default_rng(300 + seed)
    cap = float(rng.uniform(1e-3, 5.0))
    res = simulate_soc(choppy_day(rng), BatteryState(capacity_j=cap, charge_j=cap / 2),
                       float(rng.uniform(0.0, 3000.0)), 602.2e-6, days=2)
    total = res.days * DAY_S
    windows = [tuple(sorted(rng.integers(0, total + 1, 2).tolist())) for _ in range(40)]
    windows += [(a, min(a + 65536, total)) for a in range(0, total, 65536)]
    assert_windows_match(res, windows + window_edges(res))


def test_charge_series_windows_under_a_load_beyond_int64():
    # 1e20 detections a minute: the net loss of one second passes int64 nJ,
    # so the battery is empty after the first second of every segment
    res = simulate_soc(indoor_day_scenario(), BatteryState(), 1e20, 602.2e-6, days=2)
    assert all(gain < -(2**63) for _, _, _, gain, _ in res.segments)
    assert not charge_series_nj(res).any()
    assert_windows_match(res, window_edges(res))


def test_charge_series_rejects_a_window_outside_the_run():
    res = simulate_soc(indoor_day_scenario(), BatteryState(), 24.0, 602.2e-6)
    for a, b in [(-1, 5), (5, 4), (0, DAY_S + 1)]:
        with pytest.raises(ValueError, match="window"):
            charge_series_nj(res, a, b)


def test_charge_series_guard_refuses_a_window_past_int64():
    # a dark hour holds the charge just below 2^63 nJ, then outdoor sun pushes
    # it past: a window across both segments is refused, one inside the dark
    # hour is not
    day = HarvestScenario("edge", (Segment(3600.0), Segment(82800.0, (("solar", "outdoor"),))))
    battery = BatteryState(capacity_j=1.4e10, charge_j=(2**63 - 10**10) / 1e9)
    res = simulate_soc(day, battery, 0.0, 602.2e-6)
    (_, _, c0, _, c1), (_, _, _, _, end) = res.segments
    assert c0 == c1 < 2**63 <= end
    with pytest.raises(ConfigError, match="int64"):
        charge_series_nj(res, 3500, 3700)
    with pytest.raises(ConfigError, match="int64"):
        require_int64_nj(res.segments)
    # the dark hour alone fits
    assert (charge_series_nj(res, 3400, 3600) == c0).all()
    require_int64_nj(res.segments[:1])


def peak_nj(records):
    """The highest charge, start or end, that segment records hold."""
    return max(max(c0, c1) for _, _, c0, _, c1 in records)


@pytest.mark.parametrize("seed", range(3))
def test_highest_days_hold_the_highest_charge_randomized(seed):
    # spill, brownout, in-range and drift runs up and down, of up to 10^4
    # days: each run's highest day holds the highest charge of all its days
    rng = np.random.default_rng(700 + seed)
    stock = BatteryState().capacity_j
    seen = set()
    for _ in range(30):
        scenario = few_segment_day(rng)
        exact = sustainable_rate(scenario, 602.2e-6).detections_per_day_exact / 1440
        rate = exact * [0.0, float(rng.uniform(0.9, 1.1)), float(rng.uniform(0.0, 20.0))][
            int(rng.integers(3))]
        cap = stock * 10 ** float(rng.uniform(-3, 3))
        charge = [0.0, cap, float(rng.uniform(0.0, cap))][int(rng.integers(3))]
        res = simulate_soc(scenario, BatteryState(capacity_j=cap, charge_j=charge), rate,
                           602.2e-6, days=int(rng.integers(1, 10**4 + 1)))
        assert len(res.highest_days) == len(res.runs) * len(scenario.plan)
        assert peak_nj(res.highest_days) == peak_nj(res.segments)
        seen |= {"spill"} if res.spilled_j > 0 else set()
        seen |= {"brownout"} if res.unmet_j > 0 else set()
        seen |= {"in-range"} if res.spilled_j == res.unmet_j == 0 else set()
        seen |= {("up", "down")[shift < 0] for _, days, shift, _ in res.runs
                 if days > 1 and shift}
    assert seen == {"spill", "brownout", "in-range", "up", "down"}


@pytest.mark.parametrize("direction", ["up", "down"])
def test_highest_days_see_a_charge_past_int64_on_one_day_of_a_run(direction):
    # no load on the indoor day from 46.85 J below 2^63 nJ: it rises about
    # 21.5 J a day unpinned, and only the run's last day passes the limit.
    # 40/min from 1 J above it: it falls about 13.2 J a day, and only the
    # run's first day holds a charge past the limit.
    start, rate = {"up": (2**63 - 46_854_775_808, 0.0), "down": (2**63 + 10**9, 40.0)}[
        direction]
    battery = BatteryState(capacity_j=1.4e10, charge_j=start / 1e9)
    res = simulate_soc(indoor_day_scenario(), battery, rate, 602.2e-6, days=3)
    (day, days, shift, _), = res.runs
    assert (day, days, shift > 0) == (0, 3, direction == "up")
    over, under = (res.segments[4:], res.segments[:4]) if direction == "up" else (
        res.segments[:2], res.segments[2:])
    assert peak_nj(under) < 2**63 <= peak_nj(over)
    assert res.highest_days == over
    with pytest.raises(ConfigError, match="int64"):
        require_int64_nj(res.highest_days)


def test_soc_results_compare_by_value():
    run = [simulate_soc(indoor_day_scenario(), BatteryState(capacity_j=20.0), 30.0, 602.2e-6,
                        days=2) for _ in range(2)]
    assert run[0] == run[1]
    assert hash(run[0]) == hash(run[1])
    assert [seconds for _, seconds, *_ in run[0].segments] == [6 * 3600, 18 * 3600] * 2


def test_soc_brownout_timing_closed_form():
    # constant 1 mJ/s load in the dark from a 1 J battery: dry at t = 1000 s
    battery = BatteryState(capacity_j=1.0)
    res = simulate_soc(dark_scenario(), battery, 60.0, 1e-3)
    assert res.brownout
    assert res.first_brownout_s == 1000.0
    assert res.final_charge_j == 0.0
    assert res.min_charge_j == 0.0
    assert res.max_charge_j == 1.0
    assert res.served_j == pytest.approx(1.0, abs=1e-9)
    assert res.unmet_j == pytest.approx((DAY_S - 1000) * 1e-3, abs=1e-9)


def test_soc_overdrawn_rate_browns_out():
    battery = BatteryState(capacity_j=5.0)
    rate = 2 * 24.809
    res = simulate_soc(indoor_day_scenario(), battery, rate, 602.2e-6, days=2)
    assert res.brownout
    assert res.first_brownout_s is not None
    assert res.min_charge_j == 0.0
    assert res.unmet_j > 0.0


def test_soc_sustainable_rate_holds_for_a_week():
    report = sustainable_rate(indoor_day_scenario(), 602.2e-6)
    battery = BatteryState(capacity_j=1598.4, charge_j=800.0)
    res = simulate_soc(
        indoor_day_scenario(),
        battery,
        report.max_detections_per_minute,
        602.2e-6,
        days=7,
    )
    assert not res.brownout
    assert res.unmet_j == 0.0
    assert res.spilled_j == 0.0
    # the floored rate undershoots intake, so charge drifts gently upward
    assert abs(res.final_charge_j - 800.0) <= 0.01


def test_soc_default_battery_is_full():
    battery = BatteryState()
    assert battery.capacity_j == pytest.approx(1598.4)
    assert battery.charge_j == battery.capacity_j
    res = simulate_soc(outdoor_hour_scenario(), battery, 0.0, 602.2e-6)
    # a full battery spills everything it harvests
    assert res.spilled_j == pytest.approx(res.intake_j, abs=1e-9)
    assert res.final_charge_j == battery.capacity_j


def test_soc_bad_arguments():
    battery = BatteryState()
    with pytest.raises(ConfigError):
        simulate_soc(indoor_day_scenario(), battery, -1.0, 602.2e-6)
    with pytest.raises(ConfigError):
        simulate_soc(indoor_day_scenario(), battery, 1.0, 602.2e-6, days=0)
    for rate, energy in ((math.nan, 602.2e-6), (math.inf, 602.2e-6), (1.0, math.inf),
                         (1.0, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            simulate_soc(indoor_day_scenario(), battery, rate, energy)
    with pytest.raises(ConfigError, match="whole second"):
        ragged = HarvestScenario("ragged", (Segment(0.5), Segment(DAY_S - 0.5)))
        simulate_soc(ragged, battery, 1.0, 602.2e-6)


def test_battery_state_validation():
    for capacity in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            BatteryState(capacity_j=capacity)
    # a negative charge is an error too: only an omitted one starts full
    for charge in (11.0, -3.0, -1.0):
        with pytest.raises(ConfigError, match=r"charge must lie in \[0, capacity\]"):
            BatteryState(capacity_j=10.0, charge_j=charge)
    assert BatteryState(capacity_j=10.0, charge_j=0.0).charge_j == 0.0
    assert BatteryState(capacity_j=10.0).charge_j == 10.0


def test_simulate_soc_rejects_nanojoules_that_overflow_a_float():
    # each input is a finite float; its nanojoules, or the run's whole demand
    # in them, are not, and the totals must convert back to joules
    day, e = indoor_day_scenario(), 602.2e-6
    for quantity, battery, rate, days in [
        ("detection load", BatteryState(), 1e306, 1),
        ("total demand", BatteryState(), 1e300, 1),
        ("total demand", BatteryState(), 1e290, 10**10),
        ("battery capacity", BatteryState(capacity_j=1e301), 1.0, 1),
    ]:
        with pytest.raises(ConfigError, match=f"^{quantity} in nanojoules is not a finite float$"):
            simulate_soc(day, battery, rate, e, days=days)
    res = simulate_soc(day, BatteryState(), 1e290, e)
    assert res.brownout and math.isfinite(res.unmet_j)


# ---------------------------------------------------------------------------
# scenario files

def test_scenario_yaml_round_trip(tmp_path):
    doc = {
        "name": "commute",
        "segments": [
            {"duration_h": 6, "sources": [
                {"kind": "solar", "condition": "indoor"},
                {"kind": "teg", "condition": "warm-room"},
            ]},
            {"duration_s": 18 * 3600, "sources": [
                {"kind": "teg", "condition": "warm-room"},
            ]},
        ],
    }
    path = tmp_path / "commute.yaml"
    path.write_text(yaml.safe_dump(doc))
    scenario = scenario_from_config(path)
    assert scenario.name == "commute"
    assert scenario.total_duration_s == DAY_S
    # identical schedule to the builtin indoor day
    assert daily_intake(scenario) == daily_intake(indoor_day_scenario())


def test_scenario_yaml_defaults_and_empty_sources(tmp_path):
    doc = {"segments": [{"duration_h": 24, "sources": []}]}
    path = tmp_path / "idle.yaml"
    path.write_text(yaml.safe_dump(doc))
    scenario = scenario_from_config(path)
    assert scenario.name == "custom"
    assert daily_intake(scenario) == 0.0


@pytest.mark.parametrize("segment", ["{duration_h: 24, sources: null}", "{duration_h: 24}"],
                         ids=["null", "absent"])
def test_scenario_yaml_null_or_absent_sources_mean_none(tmp_path, segment):
    path = tmp_path / "idle.yaml"
    path.write_text(f"segments: [{segment}]\n")
    assert scenario_from_config(path).segments[0].sources == ()


def test_scenario_yaml_error_cases(tmp_path):
    path = tmp_path / "bad.yaml"

    path.write_text("segments: 5\n")
    with pytest.raises(ConfigError, match="segments"):
        scenario_from_config(path)

    path.write_text(yaml.safe_dump({"segments": []}))
    with pytest.raises(ConfigError, match="no segments"):
        scenario_from_config(path)

    path.write_text("segments: [5]\n")
    with pytest.raises(ConfigError) as exc:
        scenario_from_config(path)
    assert str(exc.value) == f"{path}: segment 0 must be a mapping"

    doc = {"segments": [{"duration_h": 1, "duration_s": 3600}]}
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="exactly one of"):
        scenario_from_config(path)

    doc = {"segments": [{"sources": []}]}
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="exactly one of"):
        scenario_from_config(path)

    doc = {"segments": [{"duration_h": 24, "sources": [{"kind": "teg"}]}]}
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="'kind' and 'condition'"):
        scenario_from_config(path)

    # the rules Segment and HarvestScenario check when built name the file too
    for segments, message in [
        ([{"duration_h": 24, "sources": [{"kind": "teg", "condition": "sauna"}]}],
         "unknown teg condition 'sauna'; choose from "
         "['cool-room', 'cool-room-wind', 'warm-room']"),
        ([{"duration_h": 24, "sources": [{"kind": "wind", "condition": "gale"}]}],
         "unknown source kind 'wind'; choose from ['solar', 'teg']"),
        ([{"duration_h": 25}, {"duration_h": -1}], "segment duration must be positive"),
        ([{"duration_h": 23}], "scenario 'custom' covers 82800.0 s, "
                               "daily budgets need exactly 86400 s"),
        ([{"duration_s": 0.5}, {"duration_s": 86399.5}],
         "segment duration 0.5 s is not a whole second"),
        # within 1e-6 of a whole second, but that second is 0
        ([{"duration_s": 5.0e-7}, {"duration_s": 86400 - 5.0e-7}],
         "segment duration 5e-07 s is not a whole second"),
    ]:
        path.write_text(yaml.safe_dump({"segments": segments}))
        with pytest.raises(ConfigError) as exc:
            scenario_from_config(path)
        assert str(exc.value) == f"{path}: {message}"

    path.write_text("segments: [:\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        scenario_from_config(path)


@pytest.mark.parametrize("value", ["abc", "[1]", "{h: 1}", "1" + "0" * 400, "true", "false"],
                         ids=["text", "list", "mapping", "beyond-float", "true", "false"])
@pytest.mark.parametrize("key", ["duration_s", "duration_h"])
def test_scenario_yaml_rejects_a_non_numeric_duration(tmp_path, key, value):
    path = tmp_path / "bad.yaml"
    path.write_text(f"segments:\n  - duration_h: 1\n  - {key}: {value}\n")
    with pytest.raises(ConfigError, match=f"{path}: segment 1 {key} must be a number"):
        scenario_from_config(path)
