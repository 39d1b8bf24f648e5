"""Tests for the cycle/energy model of the four embedded targets.

The calibration numbers are measured constants, so most tests pin them as
literals; derived quantities (fit coefficients, powers, speedups) are checked
against in-test recomputation from those same literals.
"""

import functools
import re
from fractions import Fraction
from operator import delitem, setitem
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from stresswatch import (
    CalibrationError,
    CalibrationTable,
    ConfigError,
    build_network_a,
    build_profiles,
    builtin_calibration,
    calibration_report,
    detection_energy,
    derive_power,
    fit_cycle_model,
    load_calibration,
    predict,
    quantize,
    speedup,
)
from stresswatch import perf_model

PLATFORMS = ("cortex_m4", "ibex", "ri5cy_single", "ri5cy_multi8")

CYCLES = {
    "cortex_m4": {"A": 30210, "B": 902763},
    "ibex": {"A": 40661, "B": 955588},
    "ri5cy_single": {"A": 22772, "B": 519354},
    "ri5cy_multi8": {"A": 6126, "B": 108316},
}
ENERGY_UJ = {
    "cortex_m4": {"A": 5.1, "B": 153.8},
    "ibex": {"A": 1.3, "B": 31.5},
    "ri5cy_single": {"A": 2.9, "B": 65.6},
    "ri5cy_multi8": {"A": 1.2, "B": 21.6},
}
CLOCK_HZ = {"cortex_m4": 64e6, "ibex": 100e6,
            "ri5cy_single": 100e6, "ri5cy_multi8": 100e6}
WEIGHTS = {"A": 3003, "B": 81032}


def doctored_table(**overrides):
    t = builtin_calibration()
    return CalibrationTable(
        clock_hz=overrides.get("clock_hz", t.clock_hz),
        cycles=overrides.get("cycles", t.cycles),
        energy_uj=overrides.get("energy_uj", t.energy_uj),
        network_weights=overrides.get("network_weights", t.network_weights),
    )


# ---------------------------------------------------------------------------
# stock table

def test_builtin_table_values():
    t = builtin_calibration()
    assert t.clock_hz == CLOCK_HZ
    assert t.cycles == CYCLES
    assert t.energy_uj == ENERGY_UJ
    assert t.network_weights == WEIGHTS
    assert t.platforms == PLATFORMS


# ---------------------------------------------------------------------------
# cycle fit

def test_fit_reproduces_both_calibration_points():
    models = fit_cycle_model(builtin_calibration())
    assert set(models) == set(PLATFORMS)
    for p, m in models.items():
        assert m.cycles(WEIGHTS["A"]) == CYCLES[p]["A"]
        assert m.cycles(WEIGHTS["B"]) == CYCLES[p]["B"]
        alpha = (CYCLES[p]["B"] - CYCLES[p]["A"]) / (WEIGHTS["B"] - WEIGHTS["A"])
        assert m.alpha == pytest.approx(alpha, rel=1e-12)


def test_fit_needs_distinct_reference_sizes():
    with pytest.raises(CalibrationError):
        doctored_table(network_weights={"A": 3003, "B": 3003})


def test_cycles_clamp_at_zero():
    models = fit_cycle_model(builtin_calibration())
    # the M4 line has a negative intercept; tiny nets must not go negative
    assert models["cortex_m4"].delta < 0
    assert models["cortex_m4"].cycles(1) == 0


def test_cycles_monotone_in_weight_count():
    for m in fit_cycle_model(builtin_calibration()).values():
        prev = -1
        for w in (1, 100, 3003, 20000, 81032, 200000):
            c = m.cycles(w)
            assert c >= prev
            prev = c


# ---------------------------------------------------------------------------
# power derivation

def test_derived_powers():
    powers = derive_power(builtin_calibration())
    expected_mw = {
        "cortex_m4": 10.8539,
        "ibex": 3.2468,
        "ri5cy_single": 12.6830,
        "ri5cy_multi8": 19.7651,
    }
    for p in PLATFORMS:
        per_net = [
            ENERGY_UJ[p][n] * 1e-6 * CLOCK_HZ[p] / CYCLES[p][n] for n in ("A", "B")
        ]
        mean = sum(per_net) / 2
        assert powers[p] == pytest.approx(mean, rel=1e-12)
        assert powers[p] * 1e3 == pytest.approx(expected_mw[p], abs=5e-4)
        # both networks back out nearly the same power
        assert max(abs(v - mean) for v in per_net) / mean <= 0.03


def test_inconsistent_energies_fail_calibration():
    energy = {p: dict(v) for p, v in ENERGY_UJ.items()}
    energy["ibex"]["B"] *= 1.10
    with pytest.raises(CalibrationError, match="ibex"):
        doctored_table(energy_uj=energy)


# ---------------------------------------------------------------------------
# table validation

def test_validation_errors():
    with pytest.raises(ConfigError):
        doctored_table(clock_hz={**CLOCK_HZ, "ibex": 0.0})
    cycles = {p: dict(v) for p, v in CYCLES.items()}
    del cycles["ibex"]["B"]
    with pytest.raises(ConfigError):
        doctored_table(cycles=cycles)
    with pytest.raises(ConfigError):
        doctored_table(network_weights={"A": 3003})
    # counts the fit cannot take as floats are refused, not an OverflowError
    huge = {p: {n: c * 10**400 for n, c in v.items()} for p, v in CYCLES.items()}
    with pytest.raises(ConfigError, match="2\\^63"):
        doctored_table(cycles=huge)
    with pytest.raises(ConfigError, match="2\\^63"):
        doctored_table(network_weights={"A": 3003, "B": 10**400})
    # beyond 2^53 the float line cannot land on an odd cycle count
    cycles = {p: dict(v) for p, v in CYCLES.items()}
    cycles["ibex"] = {"A": 2**53 + 1, "B": 2**54 + 1}
    energy = {p: dict(v) for p, v in ENERGY_UJ.items()}
    energy["ibex"] = {"A": 1e6, "B": 2e6}
    with pytest.raises(CalibrationError, match="fit predicts"):
        doctored_table(cycles=cycles, energy_uj=energy)
    # 1e-320 Hz is positive and finite, but every time it gives is inf
    with pytest.raises(ConfigError, match="finite time and active power"):
        doctored_table(clock_hz={**CLOCK_HZ, "ibex": 1.0e-320})
    # both powers overflow to inf, which hides a 23-fold disagreement
    energy = {**ENERGY_UJ, "ibex": {"A": 1.0e300, "B": 1.0e300}}
    with pytest.raises(ConfigError, match="finite time and active power"):
        doctored_table(clock_hz={**CLOCK_HZ, "ibex": 1.0e308}, energy_uj=energy)
    # both powers are finite, 41% apart, but their sum (and mean) is inf
    energy = {**ENERGY_UJ, "ibex": {"A": 4.0e18, "B": 1.6e20}}
    with pytest.raises(ConfigError, match="finite time and active power"):
        doctored_table(clock_hz={**CLOCK_HZ, "ibex": 1.0e300}, energy_uj=energy)


def test_builtin_table_is_built_once():
    assert builtin_calibration() is builtin_calibration()


def stock_doc_table(tmp_path):
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(table_to_doc(builtin_calibration())))
    return load_calibration(path)


@pytest.mark.parametrize("source", ["builtin", "yaml"])
def test_tables_are_read_only(tmp_path, source):
    t = builtin_calibration() if source == "builtin" else stock_doc_table(tmp_path)
    writes = [
        (setitem, t.clock_hz, "ibex", 1.0),
        (setitem, t.cycles, "esp32", {"A": 1, "B": 2}),
        (setitem, t.cycles["ibex"], "A", 1),
        (setitem, t.energy_uj, "ibex", {}),
        (setitem, t.energy_uj["ri5cy_multi8"], "A", -1e9),
        (setitem, t.network_weights, "A", 1),
        (delitem, t.cycles["ibex"], "B"),
        (setitem, t.profiles, "esp32", t.profiles["ibex"]),
        (delitem, t.profiles, "ibex"),
    ]
    for write, *args in writes:
        with pytest.raises(TypeError, match="mappingproxy"):
            write(*args)
    assert detection_energy("ri5cy_multi8", t) == pytest.approx(602.2e-6, rel=1e-12)
    assert t == builtin_calibration()


def test_table_keeps_its_own_copy_of_the_inputs():
    clock = dict(CLOCK_HZ)
    cycles = {p: dict(v) for p, v in CYCLES.items()}
    energy = {p: dict(v) for p, v in ENERGY_UJ.items()}
    weights = dict(WEIGHTS)
    t = CalibrationTable(clock, cycles, energy, weights)
    clock["ibex"] = 0.0
    cycles["ibex"]["A"] = -1
    cycles["esp32"] = {"A": 1, "B": 2}
    energy["ri5cy_multi8"]["A"] = -1e9
    del weights["B"]
    assert t.clock_hz == CLOCK_HZ
    assert t.cycles == CYCLES
    assert t.energy_uj == ENERGY_UJ
    assert t.network_weights == WEIGHTS
    assert t == builtin_calibration()
    assert detection_energy("ri5cy_multi8", t) == pytest.approx(602.2e-6, rel=1e-12)


# ---------------------------------------------------------------------------
# profiles

# a custom table with its own reference sizes: alpha 5 and 0.5, delta 5000
# and 1500; network B's power is 1.7% above A's on "z" and 1% below on "y"
CUSTOM_DOC = {
    "platforms": {
        "z": {"clock_hz": 48e6, "cycles": {"A": 10000, "B": 30000},
              "energy_uj": {"A": 2.0, "B": 6.1}},
        "y": {"clock_hz": 1e6, "cycles": {"A": 2000, "B": 4000},
              "energy_uj": {"A": 0.3, "B": 0.594}},
    },
    "networks": {"A": {"weights": 1000}, "B": {"weights": 5000}},
}


def reference_profiles(t):
    """Each platform's two-point cycle fit and its mean A/B active power,
    recomputed from the table's constants."""
    w_a, w_b = t.network_weights["A"], t.network_weights["B"]
    out = {}
    for p in t.platforms:
        c_a, c_b = t.cycles[p]["A"], t.cycles[p]["B"]
        alpha = (c_b - c_a) / (w_b - w_a)
        powers = [t.energy_uj[p][n] * 1e-6 / (t.cycles[p][n] / t.clock_hz[p]) for n in "AB"]
        out[p] = perf_model.PlatformProfile(p, t.clock_hz[p], float(np.mean(powers)),
                                            perf_model.CycleModel(alpha, c_a - alpha * w_a))
    return out


def bits(profile):
    return (profile.name, profile.clock_hz.hex(), profile.active_power_w.hex(),
            profile.cycle_model.alpha.hex(), float(profile.cycle_model.delta).hex())


@pytest.mark.parametrize("source", ["builtin", "yaml"])
def test_profiles_are_the_fit_and_mean_power_bit_for_bit(tmp_path, source):
    if source == "builtin":
        t = builtin_calibration()
    else:
        path = tmp_path / "custom.yaml"
        path.write_text(yaml.safe_dump(CUSTOM_DOC))
        t = load_calibration(path)
    want = reference_profiles(t)
    assert list(t.profiles) == list(t.platforms)
    assert {p: bits(v) for p, v in t.profiles.items()} == {p: bits(v) for p, v in want.items()}
    assert build_profiles(t) == want
    assert fit_cycle_model(t) == {p: v.cycle_model for p, v in want.items()}
    assert {p: v.hex() for p, v in derive_power(t).items()} == {
        p: v.active_power_w.hex() for p, v in want.items()}
    for p in t.platforms:
        assert t.profile(p) is t.profiles[p]


def test_profile_refuses_a_platform_the_table_lacks():
    with pytest.raises(ConfigError) as exc:
        builtin_calibration().profile("nope")
    assert str(exc.value) == ("unknown platform 'nope'; choose from "
                              "['cortex_m4', 'ibex', 'ri5cy_multi8', 'ri5cy_single']")


def test_profiles_take_no_part_in_equality_or_repr():
    t = builtin_calibration()
    again = CalibrationTable(t.clock_hz, t.cycles, t.energy_uj, t.network_weights)
    assert again == t and again.profiles is not t.profiles
    assert "profiles" not in repr(t)
    with pytest.raises(TypeError):
        CalibrationTable(t.clock_hz, t.cycles, t.energy_uj, t.network_weights, {})


# ---------------------------------------------------------------------------
# prediction

def test_predict_at_calibration_points():
    profiles = build_profiles()
    net_a = build_network_a(seed=0)
    for p in PLATFORMS:
        pred = predict(net_a, profiles[p])
        assert pred.cycles == CYCLES[p]["A"]
        assert pred.time_s == pytest.approx(CYCLES[p]["A"] / CLOCK_HZ[p], rel=1e-12)
        # time x mean power stays within ~2% of the measured energy
        assert pred.energy_j == pytest.approx(ENERGY_UJ[p]["A"] * 1e-6, rel=0.02)
    big = SimpleNamespace(weight_count=WEIGHTS["B"])
    assert predict(big, profiles["ri5cy_multi8"]).cycles == CYCLES["ri5cy_multi8"]["B"]


def test_predict_accepts_fixed_point_nets():
    profiles = build_profiles()
    fp = quantize(build_network_a(seed=1))
    assert predict(fp, profiles["cortex_m4"]).cycles == 30210


def test_predict_tiny_net_clamps():
    profiles = build_profiles()
    pred = predict(SimpleNamespace(weight_count=1), profiles["cortex_m4"])
    assert pred.cycles == 0
    assert pred.time_s == 0.0
    assert pred.energy_j == 0.0


# ---------------------------------------------------------------------------
# speedups

def test_speedups_vs_m4():
    t = builtin_calibration()
    expected = {
        ("cortex_m4", "A"): 1.0,
        ("ibex", "A"): 30210 / 40661,
        ("ri5cy_single", "A"): 30210 / 22772,
        ("ri5cy_multi8", "A"): 30210 / 6126,
        ("cortex_m4", "B"): 1.0,
        ("ibex", "B"): 902763 / 955588,
        ("ri5cy_single", "B"): 902763 / 519354,
        ("ri5cy_multi8", "B"): 902763 / 108316,
    }
    for (p, n), want in expected.items():
        assert speedup(t, p, n) == pytest.approx(want, rel=1e-12)
    # the headline ratios
    assert speedup(t, "ri5cy_single", "A") == pytest.approx(1.3266, abs=5e-4)
    assert speedup(t, "ri5cy_single", "B") == pytest.approx(1.7382, abs=5e-4)
    assert speedup(t, "ri5cy_multi8", "A") == pytest.approx(4.9314, abs=5e-4)
    assert speedup(t, "ri5cy_multi8", "B") == pytest.approx(8.3345, abs=5e-4)


# ---------------------------------------------------------------------------
# detection energy

def test_detection_energy_values():
    expected_uj = {
        "cortex_m4": 606.1,
        "ibex": 602.3,
        "ri5cy_single": 603.9,
        "ri5cy_multi8": 602.2,
    }
    for p, uj in expected_uj.items():
        assert detection_energy(p) == pytest.approx(uj * 1e-6, rel=1e-9)
        assert detection_energy(p) == pytest.approx(
            600e-6 + 1e-6 + ENERGY_UJ[p]["A"] * 1e-6, rel=1e-12
        )
        assert detection_energy(p) == float(f"{uj}e-6")  # spelled as the decimal sum


@pytest.mark.parametrize("energy_uj", [4.3, 0.1, 123.456789012345, 7e-250, 3e280])
def test_detection_energy_is_the_exact_sum_rounded_once(energy_uj):
    # the reference: the three decimal spellings summed as rationals
    want = float(Fraction(repr(perf_model.ACQUISITION_ENERGY_J))
                 + Fraction(repr(perf_model.FEATURE_ENERGY_J)) + Fraction(repr(energy_uj)) / 10**6)
    a, b = CYCLES["ibex"]["A"], CYCLES["ibex"]["B"]
    t = CalibrationTable({"ibex": CLOCK_HZ["ibex"]}, {"ibex": CYCLES["ibex"]},
                         {"ibex": {"A": energy_uj, "B": energy_uj * b / a}}, WEIGHTS)
    assert detection_energy("ibex", t) == want


def test_detection_energy_parts():
    assert perf_model.ACQUISITION_ENERGY_J == 600e-6
    assert perf_model.ACQUISITION_DURATION_S == 3.0
    assert perf_model.FEATURE_ENERGY_J == 1e-6
    # the measured figure sits near, not on, power x duration
    budget = (perf_model.ECG_FRONTEND_POWER_W + perf_model.GSR_FRONTEND_POWER_W) * 3.0
    assert abs(perf_model.ACQUISITION_ENERGY_J - budget) / budget < 0.01
    with pytest.raises(ConfigError, match="unknown platform"):
        detection_energy("esp32")


# ---------------------------------------------------------------------------
# report rows

def test_calibration_report_shape_and_values():
    rows = calibration_report()
    assert len(rows) == 8
    assert [r["platform"] for r in rows] == [p for p in PLATFORMS for _ in "AB"]
    t = builtin_calibration()
    for r in rows:
        p, n = r["platform"], r["network"]
        assert r["cycles"] == CYCLES[p][n]
        assert r["energy_uj"] == ENERGY_UJ[p][n]
        assert r["time_us"] == pytest.approx(CYCLES[p][n] / CLOCK_HZ[p] * 1e6)
        assert r["speedup_vs_cortex_m4"] == pytest.approx(speedup(t, p, n))


# ---------------------------------------------------------------------------
# YAML loading

def table_to_doc(table):
    return {
        "platforms": {
            p: {
                "clock_hz": table.clock_hz[p],
                "cycles": dict(table.cycles[p]),
                "energy_uj": dict(table.energy_uj[p]),
            }
            for p in table.platforms
        },
        "networks": {n: {"weights": w} for n, w in table.network_weights.items()},
    }


def test_yaml_round_trip(tmp_path):
    t = builtin_calibration()
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(table_to_doc(t)))
    back = load_calibration(path)
    assert back == t


def test_yaml_without_networks_uses_stock_weights(tmp_path):
    doc = table_to_doc(builtin_calibration())
    del doc["networks"]
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert load_calibration(path).network_weights == WEIGHTS


def test_yaml_error_cases(tmp_path):
    path = tmp_path / "bad.yaml"

    path.write_text("just a string\n")
    with pytest.raises(ConfigError, match="platforms"):
        load_calibration(path)

    doc = table_to_doc(builtin_calibration())
    del doc["platforms"]["ibex"]["cycles"]
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="ibex"):
        load_calibration(path)

    doc = table_to_doc(builtin_calibration())
    doc["networks"] = {"A": {"weights": 3003}}
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="networks"):
        load_calibration(path)

    path.write_text("platforms: [:\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_calibration(path)

    doc = table_to_doc(builtin_calibration())
    doc["networks"] = {"A": {"weights": -3003}, "B": {"weights": 0}}
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="weight counts must be positive"):
        load_calibration(path)


# one value of the stock table replaced: a YAML boolean where a number is due,
# or a fraction where a count is due
NOT_A_NUMBER = {
    "fractional-cycles": (("platforms", "cortex_m4", "cycles", "A"), 30210.9),
    "true-cycles": (("platforms", "cortex_m4", "cycles", "A"), True),
    "true-clock": (("platforms", "ibex", "clock_hz"), True),
    "true-energy": (("platforms", "ibex", "energy_uj", "A"), True),
    "true-weights": (("networks", "A", "weights"), True),
    "fractional-weights": (("networks", "B", "weights"), 81032.5),
}


@pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
def test_yaml_booleans_and_fractions_are_not_numbers(tmp_path, case):
    keys, value = NOT_A_NUMBER[case]
    doc = table_to_doc(builtin_calibration())
    functools.reduce(dict.__getitem__, keys[:-1], doc)[keys[-1]] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load_calibration(path)


def test_modified_yaml_feeds_the_model(tmp_path):
    # halving every cycle count doubles the speedups' absolute cycle basis
    doc = table_to_doc(builtin_calibration())
    for p in doc["platforms"]:
        doc["platforms"][p]["cycles"] = {
            n: c // 2 for n, c in doc["platforms"][p]["cycles"].items()
        }
        doc["platforms"][p]["energy_uj"] = {
            n: e / 2 for n, e in doc["platforms"][p]["energy_uj"].items()
        }
    path = tmp_path / "half.yaml"
    path.write_text(yaml.safe_dump(doc))
    table = load_calibration(path)
    profiles = build_profiles(table)
    pred = predict(build_network_a(seed=0), profiles["cortex_m4"])
    assert pred.cycles == 30210 // 2
