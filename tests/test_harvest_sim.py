"""Tests for harvesting scenarios, sustainability math and the SoC loop.

Intake figures are recomputed in-test from the measured source powers
(0.9 mW indoor solar, 24.711 mW outdoor, 24/55.5/155.4 uW TEG), so the
builtin scenarios are pinned against hand arithmetic. The SoC simulator is
checked on its integer bookkeeping: conservation to the nanojoule, charge
bounds, closed-form brownout timing on constructed scenarios, and field-for-
field agreement with a reference that steps the battery one second at a time.
"""

import dataclasses
import math

import numpy as np
import pytest
import yaml

from stresswatch import (
    BatteryState,
    ConfigError,
    HarvestScenario,
    Segment,
    SocSimResult,
    SourceModel,
    builtin_scenarios,
    builtin_sources,
    daily_intake,
    detection_energy,
    indoor_day_scenario,
    outdoor_hour_scenario,
    scenario_from_config,
    segment_power_w,
    simulate_soc,
    sustainable_rate,
)

DAY_S = 86400


def nj(x_j):
    """Joules -> integer nanojoules (exact for the magnitudes used here)."""
    return int(round(x_j * 1e9))


def dark_scenario():
    return HarvestScenario("dark", (Segment(float(DAY_S)),))


TEG_CONDITIONS = builtin_sources()["teg"].condition_power_w


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
    short = HarvestScenario("short", (Segment(23 * 3600.0),))
    with pytest.raises(ConfigError, match="86400"):
        daily_intake(short)


def test_segment_power_combines_sources():
    seg = Segment(3600.0, (("solar", "outdoor"), ("teg", "cool-room-wind")))
    got = segment_power_w(seg, builtin_sources())
    assert got == pytest.approx(24.711e-3 + 155.4e-6, rel=1e-12)


def test_unknown_sources_rejected():
    srcs = builtin_sources()
    with pytest.raises(ConfigError, match="unknown source kind"):
        segment_power_w(Segment(60.0, (("wind", "gale"),)), srcs)
    with pytest.raises(ConfigError, match="choose from"):
        srcs["teg"].power_w("sauna")
    with pytest.raises(ConfigError):
        daily_intake(indoor_day_scenario(teg_condition="sauna"))
    with pytest.raises(ConfigError, match="negative"):
        SourceModel("solar", {"night": -1.0})


def test_scenario_construction_guards():
    with pytest.raises(ConfigError):
        indoor_day_scenario(solar_hours=0.0)
    with pytest.raises(ConfigError):
        indoor_day_scenario(solar_hours=8.0, teg_hours=6.0)
    with pytest.raises(ConfigError):
        outdoor_hour_scenario(hours=25.0)
    with pytest.raises(ConfigError):
        Segment(0.0)
    assert set(builtin_scenarios()) == {"indoor-day", "outdoor-1h"}
    assert builtin_scenarios()["indoor-day"].total_duration_s == DAY_S


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
    res = simulate_soc(indoor_day_scenario(), battery, 0.0, 602.2e-6, record=True)
    assert not res.brownout
    assert res.served_j == 0.0
    assert res.unmet_j == 0.0
    assert np.all(np.diff(res.charge_series_j) >= 0)
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
        record = trial < 3
        res = simulate_soc(scenario, battery, rate, 602.2e-6, days=2, record=record)
        # exact energy conservation, reconstructed in integer nanojoules
        assert nj(res.final_charge_j) - nj(charge) == (
            nj(res.intake_j) - nj(res.served_j) - nj(res.spilled_j)
        )
        cap_q = nj(cap) / 1e9
        assert 0.0 <= res.min_charge_j <= res.final_charge_j <= res.max_charge_j <= cap_q
        assert res.served_j + res.unmet_j == pytest.approx(
            res.days * DAY_S * (nj(rate * 602.2e-6 / 60.0)) / 1e9, abs=1e-9
        )
        if record:
            series = res.charge_series_j
            assert series.shape == (2 * DAY_S,)
            assert series[-1] == res.final_charge_j
            # segment-endpoint extremes match the full per-second trajectory
            # (the simulator rounds the starting charge to whole nanojoules)
            start = nj(charge) / 1e9
            assert res.min_charge_j == min(start, float(series.min()))
            assert res.max_charge_j == max(start, float(series.max()))


def per_second_soc(scenario, battery, rate_per_minute, detection_energy_j, days, record):
    """Reference simulator: the same integer-nanojoule battery stepped one
    second at a time. ``simulate_soc`` must agree with it on every field."""
    srcs = builtin_sources()
    plan = [
        (int(round(seg.duration_s)), int(round(segment_power_w(seg, srcs) * 1e9)))
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
    return SocSimResult(
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
        charge_series_j=np.array(series, dtype=np.int64) / 1e9 if record else None,
    )


def assert_matches_per_second(scenario, battery, rate, energy, days, record=False):
    got = simulate_soc(scenario, battery, rate, energy, days=days, record=record)
    want = per_second_soc(scenario, battery, rate, energy, days, record)
    for f in dataclasses.fields(SocSimResult):
        if f.name != "charge_series_j":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    if record:
        assert np.array_equal(got.charge_series_j, want.charge_series_j)
    else:
        assert got.charge_series_j is None
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
        602.2e-6, days=2, record=seed % 2 == 0,
    )


def test_soc_matches_per_second_reference_on_a_day_two_brownout():
    # 30/min outruns the indoor day by ~4.5 J a day: a 20 J battery rides out
    # day 1 and runs dry during the TEG-only stretch of day 2
    res = assert_matches_per_second(
        indoor_day_scenario(), BatteryState(capacity_j=20.0), 30.0, 602.2e-6,
        days=3, record=True,
    )
    assert DAY_S + 6 * 3600 < res.first_brownout_s < 2 * DAY_S


def test_soc_matches_per_second_reference_from_empty():
    # no charge and a net drain: the very first second is already unmet
    res = assert_matches_per_second(
        dark_scenario(), BatteryState(capacity_j=1.0, charge_j=0.0), 60.0, 1e-3,
        days=2, record=True,
    )
    assert res.first_brownout_s == 0.0


def test_soc_matches_per_second_reference_full_and_idle():
    # a full battery with no load spills the sunny hour and holds still
    # (zero net rate) through the dark rest of the day
    res = assert_matches_per_second(
        outdoor_hour_scenario(), BatteryState(capacity_j=3.0), 0.0, 602.2e-6,
        days=2, record=True,
    )
    assert res.final_charge_j == res.min_charge_j == 3.0
    assert res.spilled_j == res.intake_j


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
    ragged = HarvestScenario(
        "ragged", (Segment(0.5), Segment(DAY_S - 0.5))
    )
    with pytest.raises(ConfigError, match="whole second"):
        simulate_soc(ragged, battery, 1.0, 602.2e-6)


def test_battery_state_validation():
    for capacity in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            BatteryState(capacity_j=capacity)
    with pytest.raises(ConfigError):
        BatteryState(capacity_j=10.0, charge_j=11.0)
    assert BatteryState(capacity_j=10.0, charge_j=0.0).charge_j == 0.0


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


def test_scenario_yaml_error_cases(tmp_path):
    path = tmp_path / "bad.yaml"

    path.write_text("segments: 5\n")
    with pytest.raises(ConfigError, match="segments"):
        scenario_from_config(path)

    path.write_text(yaml.safe_dump({"segments": []}))
    with pytest.raises(ConfigError, match="no segments"):
        scenario_from_config(path)

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

    path.write_text("segments: [:\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        scenario_from_config(path)
