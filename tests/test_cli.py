"""End-to-end tests of the command-line interface.

Golden-file tests pin the exact bytes the pipeline produces for the checked-in
60 s recording, so any numeric or formatting drift in the feature extractor or
classifier shows up as a diff. The rest covers each subcommand's flags, the
JSON mode, and the exit-code contract (0 ok, 2 parse, 3 data, 4 shape,
5 config).
"""

import json

import numpy as np
import pytest

from stresswatch import (
    builtin_calibration,
    calibration_report,
    dequantize_network,
    infer_fixed,
    infer_float,
    load_fann,
    quantize,
)
from stresswatch.cli import main as cli_main


def run_cli(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_training_set(dirpath, n_per_class=12, seed=3):
    """Small, cleanly separable 3-class feature set."""
    rng = np.random.default_rng(seed)
    centers = {
        0: (35.0, 30.0, 2.0, 0.2, 1.0),
        1: (70.0, 60.0, 8.0, 0.6, 2.0),
        2: (120.0, 100.0, 20.0, 1.2, 3.5),
    }
    rows, labels = [], []
    for label, c in centers.items():
        for _ in range(n_per_class):
            rows.append([v * float(rng.uniform(0.92, 1.08)) for v in c])
            labels.append(label)
    feat_path = dirpath / "train_features.csv"
    lab_path = dirpath / "train_labels.csv"
    feat_path.write_text(
        "rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n"
        + "\n".join(",".join(f"{v:.10g}" for v in r) for r in rows)
        + "\n"
    )
    lab_path.write_text("label\n" + "\n".join(str(v) for v in labels) + "\n")
    return feat_path, lab_path, labels


# ---------------------------------------------------------------------------
# features

def test_features_matches_golden_bytes(capsys, data_dir, tmp_path):
    out = tmp_path / "features.csv"
    code, _, _ = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), "-o", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (data_dir / "golden_features.csv").read_bytes()


def test_features_stdout_equals_file_output(capsys, data_dir):
    code, stdout, _ = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"), str(data_dir / "gsr_60s.csv")
    )
    assert code == 0
    assert stdout == (data_dir / "golden_features.csv").read_text()
    assert len(stdout.splitlines()) == 4    # header + 3 windows


def test_features_json_mode(capsys, data_dir):
    code, stdout, _ = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["windows"]) == 3
    golden = (data_dir / "golden_features.csv").read_text().splitlines()[1:]
    for row, win in zip(golden, doc["windows"]):
        vals = [float(v) for v in row.split(",")]
        assert win["rmssd_ms"] == pytest.approx(vals[0], rel=1e-10)
        assert win["nn50"] == int(vals[2])
        assert win["gsrl_s"] == pytest.approx(vals[4], rel=1e-10)


def test_features_window_flags_change_count(capsys, data_dir):
    code, stdout, _ = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), "--window-s", "20", "--overlap", "0",
    )
    assert code == 0
    assert len(stdout.splitlines()) == 4    # header + 3 non-overlapping windows


def test_features_bad_header_is_a_parse_error(capsys, data_dir, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,volts\n0.0,0.1\n")
    code, _, stderr = run_cli(
        capsys, "features", str(bad), str(data_dir / "gsr_60s.csv")
    )
    assert code == 2
    assert "line 1" in stderr and "time_s,ecg" in stderr


def test_features_non_numeric_cell_names_its_line(capsys, data_dir, tmp_path):
    src = (data_dir / "gsr_60s.csv").read_text().splitlines()
    src[3] = "oops," + src[3].split(",")[1]
    bad = tmp_path / "bad_gsr.csv"
    bad.write_text("\n".join(src) + "\n")
    code, _, stderr = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"), str(bad)
    )
    assert code == 2
    assert "line 4" in stderr


def test_features_too_short_recording_is_a_data_error(capsys, tmp_path):
    ecg = tmp_path / "ecg.csv"
    gsr = tmp_path / "gsr.csv"
    ecg.write_text("time_s,ecg\n0.0,0.1\n0.004,0.2\n")
    gsr.write_text("time_s,gsr_uS\n0.0,2.0\n0.5,2.1\n")
    code, _, stderr = run_cli(capsys, "features", str(ecg), str(gsr))
    assert code == 3
    assert "error:" in stderr


def test_features_non_increasing_ecg_time_is_a_data_error(capsys, data_dir, tmp_path):
    src = (data_dir / "ecg_60s.csv").read_text().splitlines()
    src[3], src[4] = src[4], src[3]
    ecg = tmp_path / "ecg.csv"
    ecg.write_text("\n".join(src) + "\n")
    code, _, stderr = run_cli(capsys, "features", str(ecg), str(data_dir / "gsr_60s.csv"))
    assert code == 3
    assert str(ecg) in stderr and "strictly increasing" in stderr


def test_features_repeated_gsr_time_is_a_data_error(capsys, data_dir, tmp_path):
    gsr = tmp_path / "gsr.csv"
    gsr.write_text("time_s,gsr_uS\n0.5,2.0\n0.5,2.1\n")
    code, _, stderr = run_cli(capsys, "features", str(data_dir / "ecg_60s.csv"), str(gsr))
    assert code == 3
    assert str(gsr) in stderr and "strictly increasing" in stderr


@pytest.mark.parametrize("flag,value", [("--overlap", "1.5"), ("--window-s", "0")])
def test_features_bad_window_flags_are_config_errors(capsys, data_dir, flag, value):
    code, _, stderr = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), flag, value,
    )
    assert code == 5
    assert "error:" in stderr


def test_missing_input_file_is_a_parse_error(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "features", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")
    )
    assert code == 2


# ---------------------------------------------------------------------------
# classify

def test_classify_matches_golden_bytes(capsys, data_dir, tmp_path):
    out = tmp_path / "labels.csv"
    code, _, _ = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_random.net"), "-o", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (data_dir / "golden_labels.csv").read_bytes()


def test_classify_fixed_flag_keeps_labels(capsys, data_dir):
    golden = (data_dir / "golden_labels.csv").read_text().splitlines()[1:]
    code, stdout, stderr = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_random.net"), "--fixed",
    )
    assert code == 0
    got = stdout.splitlines()[1:]
    margins = []
    for g_row, f_row in zip(golden, got):
        assert f_row.split(",")[1] == g_row.split(",")[1]    # same labels
        margins.append(float(g_row.split(",")[2]))
    # the integer path's deviation is reported and is far below the margins
    assert "discrepancy" in stderr
    disc = float(stderr.rsplit(":", 1)[1])
    assert 0.0 <= disc < min(margins)


def test_classify_fixed_model_file(capsys, data_dir):
    golden = (data_dir / "golden_labels.csv").read_text().splitlines()[1:]
    code, stdout, _ = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_q16.net"),
    )
    assert code == 0
    for g_row, f_row in zip(golden, stdout.splitlines()[1:]):
        assert f_row.split(",")[1] == g_row.split(",")[1]


def test_classify_json(capsys, data_dir):
    code, stdout, _ = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_random.net"), "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["fixed"] is False
    assert doc["max_abs_discrepancy"] is None
    golden = (data_dir / "golden_labels.csv").read_text().splitlines()[1:]
    assert len(doc["rows"]) == len(golden)
    for g_row, row in zip(golden, doc["rows"]):
        _, label, margin = g_row.split(",")
        assert row["label"] == int(label)
        assert row["margin"] == pytest.approx(float(margin), rel=1e-8)
        assert len(row["outputs"]) == 3


def test_classify_header_only_input(capsys, data_dir, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n")
    code, stdout, _ = run_cli(
        capsys, "classify", str(empty),
        "--model", str(data_dir / "network_a_random.net"),
    )
    assert code == 0
    assert stdout == "row,label,margin\n"


@pytest.mark.parametrize("model", ["network_a_random.net", "network_a_q16.net"])
def test_classify_non_finite_feature_is_a_data_error(capsys, data_dir, tmp_path, model):
    # the bad row sits in the second block; nothing may be written
    rows = ["0.1,0.2,0.3,0.4,0.5"] * 300
    rows[261] = "0.1,0.2,nan,0.4,0.5"
    feats = tmp_path / "nan.csv"
    feats.write_text("rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n" + "\n".join(rows) + "\n")
    out = tmp_path / "labels.csv"
    code, stdout, stderr = run_cli(
        capsys, "classify", str(feats), "--model", str(data_dir / model), "-o", str(out),
    )
    assert code == 3
    assert "row 261" in stderr
    assert stdout == ""
    assert not out.exists()


def classify_rows_reference(float_net, fixed_net, xs):
    """Labels, margins, outputs and the fixed/float discrepancy, computed
    one row at a time with one-row kernel calls."""
    rows, disc = [], 0.0
    for x in xs:
        out = infer_float(float_net, x)
        if fixed_net is not None:
            fixed = infer_fixed(fixed_net, x)
            disc = max(disc, float(np.max(np.abs(fixed - out))))
            out = fixed
        order = np.sort(out)[::-1]
        rows.append((int(np.argmax(out)), float(order[0] - order[1]), out.tolist()))
    return rows, disc


@pytest.mark.parametrize("mode", ["float", "fixed", "file"])
def test_classify_blocks_match_row_at_a_time(capsys, data_dir, tmp_path, mode):
    # 600 rows: two full blocks and a partial third
    xs = np.random.default_rng(29).uniform(-2.0, 2.0, size=(600, 5))
    feats = tmp_path / "rows.csv"
    feats.write_text(
        "rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n"
        + "".join(",".join(repr(float(v)) for v in x) + "\n" for x in xs)
    )
    float_path = data_dir / "network_a_random.net"
    float_net = load_fann(float_path.read_text())
    if mode == "float":
        model, extra, fixed_net = float_path, (), None
    elif mode == "fixed":
        model, extra, fixed_net = float_path, ("--fixed",), quantize(float_net)
    else:
        model, extra = data_dir / "network_a_q16.net", ()
        fixed_net = load_fann(model.read_text())
        float_net = dequantize_network(fixed_net)
    want, disc = classify_rows_reference(float_net, fixed_net, xs)

    code, stdout, stderr = run_cli(capsys, "classify", str(feats), "--model", str(model), *extra)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "row,label,margin"
    assert lines[1:] == [f"{i},{label},{margin:.9g}" for i, (label, margin, _) in enumerate(want)]
    if fixed_net is not None:
        assert stderr == f"max |fixed - float| output discrepancy: {disc:.3g}\n"

    code, stdout, _ = run_cli(
        capsys, "classify", str(feats), "--model", str(model), *extra, "--json"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert [(r["row"], r["label"], r["margin"], r["outputs"]) for r in doc["rows"]] == [
        (i, *row) for i, row in enumerate(want)
    ]
    assert doc["max_abs_discrepancy"] == (disc if fixed_net is not None else None)


def test_classify_shape_mismatch(capsys, data_dir):
    code, _, stderr = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "hand_2_2_1.net"),
    )
    assert code == 4
    assert "2 inputs" in stderr


def test_classify_corrupt_model_file(capsys, data_dir, tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("NOT_A_MODEL\n")
    code, _, stderr = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(bad),
    )
    assert code == 2
    assert "line 1" in stderr


# ---------------------------------------------------------------------------
# train

def test_train_then_classify_recovers_labels(capsys, tmp_path):
    feat, lab, labels = write_training_set(tmp_path)
    model = tmp_path / "toy.net"
    code, stdout, _ = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(model),
        "--sizes", "5,8,3", "--epochs", "300", "--learning-rate", "0.3", "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["normalized"] is True
    assert doc["final_mse"] < 0.2
    assert model.exists()
    assert (tmp_path / "toy.net.norm.json").exists()

    code, stdout, _ = run_cli(capsys, "classify", str(feat), "--model", str(model))
    assert code == 0
    got = [int(line.split(",")[1]) for line in stdout.splitlines()[1:]]
    accuracy = sum(g == l for g, l in zip(got, labels)) / len(labels)
    assert accuracy >= 0.9


def test_train_no_normalize_writes_no_sidecar(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    model = tmp_path / "raw.net"
    code, _, _ = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(model),
        "--sizes", "5,6,3", "--epochs", "50", "--no-normalize",
    )
    assert code == 0
    assert model.exists()
    assert not (tmp_path / "raw.net.norm.json").exists()


def test_train_is_deterministic(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    blobs = []
    for name in ("a.net", "b.net"):
        model = tmp_path / name
        code, _, _ = run_cli(
            capsys, "train", str(feat), str(lab), "-o", str(model),
            "--sizes", "5,6,3", "--epochs", "80", "--seed", "7",
        )
        assert code == 0
        blobs.append(model.read_bytes() + (tmp_path / (name + ".norm.json")).read_bytes())
    assert blobs[0] == blobs[1]


def test_train_rejects_out_of_range_labels(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    lab.write_text("label\n" + "5\n" * 36)
    code, _, stderr = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(tmp_path / "x.net"),
        "--sizes", "5,6,3", "--epochs", "5",
    )
    assert code == 4
    assert "labels must lie in" in stderr


def test_train_label_count_mismatch(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    lab.write_text("label\n0\n1\n")
    code, _, _ = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(tmp_path / "x.net"),
        "--sizes", "5,6,3", "--epochs", "5",
    )
    assert code == 4


def test_train_bad_sizes_flag(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    code, _, _ = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(tmp_path / "x.net"),
        "--sizes", "5,banana,3", "--epochs", "5",
    )
    assert code == 5


# ---------------------------------------------------------------------------
# quantize

def test_quantize_roundtrip_and_double_quantize(capsys, data_dir, tmp_path):
    out = tmp_path / "fixed.net"
    code, stdout, _ = run_cli(
        capsys, "quantize", str(data_dir / "network_a_random.net"),
        "-o", str(out), "--json",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["frac_bits"] == 16
    assert doc["saturated_weights"] == 0
    assert out.read_text().splitlines()[0] == "SWNET_FIX_1"
    # the checked-in fixed model was produced the same way
    assert out.read_bytes() == (data_dir / "network_a_q16.net").read_bytes()

    code, _, stderr = run_cli(capsys, "quantize", str(out), "-o", str(tmp_path / "x.net"))
    assert code == 5
    assert "already fixed point" in stderr


def test_quantize_carries_normalization_sidecar(capsys, tmp_path):
    feats, labels, want = write_training_set(tmp_path)
    model = tmp_path / "m.net"
    code, _, _ = run_cli(
        capsys, "train", str(feats), str(labels), "-o", str(model),
        "--sizes", "5,8,3", "--epochs", "300", "--learning-rate", "0.3",
    )
    assert code == 0

    fixed = tmp_path / "m_q.net"
    code, stdout, _ = run_cli(
        capsys, "quantize", str(model), "-o", str(fixed), "--json",
    )
    assert code == 0
    assert json.loads(stdout)["norm_sidecar"] == str(fixed) + ".norm.json"
    assert (tmp_path / "m_q.net.norm.json").read_text() == \
        (tmp_path / "m.net.norm.json").read_text()

    # the quantized model must classify like the float one, which only
    # works if its inputs go through the same normalization
    outputs = []
    for m in (model, fixed):
        code, stdout, _ = run_cli(capsys, "classify", str(feats), "--model", str(m))
        assert code == 0
        outputs.append([row.split(",")[1] for row in stdout.splitlines()[1:]])
    assert outputs[0] == outputs[1]
    assert outputs[0] == [str(v) for v in want]


# ---------------------------------------------------------------------------
# report

def test_report_csv_matches_library_rows(capsys):
    code, stdout, _ = run_cli(capsys, "report", "--all", "--csv")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "platform,network,cycles,time_us,energy_uj,speedup_vs_cortex_m4"
    rows = calibration_report(builtin_calibration())
    assert len(lines) == 1 + len(rows) == 9
    for line, r in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == r["platform"]
        assert cells[1] == r["network"]
        assert int(cells[2]) == r["cycles"]
        assert float(cells[3]) == pytest.approx(r["time_us"], rel=1e-5)
        assert float(cells[4]) == r["energy_uj"]
        assert float(cells[5]) == pytest.approx(r["speedup_vs_cortex_m4"], rel=1e-5)


def test_report_filters(capsys):
    code, stdout, _ = run_cli(capsys, "report", "--platform", "ri5cy_multi8", "--csv")
    assert code == 0
    assert len(stdout.splitlines()) == 3
    code, stdout, _ = run_cli(capsys, "report", "--network", "A", "--csv")
    assert code == 0
    body = stdout.splitlines()[1:]
    assert len(body) == 4
    assert all(line.split(",")[1] == "A" for line in body)


def test_report_table_mode(capsys):
    code, stdout, _ = run_cli(capsys, "report", "--all")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("platform")
    assert len(lines) == 9
    assert "30210" in stdout and "902763" in stdout


def test_report_json(capsys):
    code, stdout, _ = run_cli(capsys, "report", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert len(doc["rows"]) == 8
    assert {r["platform"] for r in doc["rows"]} == {
        "cortex_m4", "ibex", "ri5cy_single", "ri5cy_multi8"
    }


def test_report_errors(capsys):
    code, _, stderr = run_cli(capsys, "report", "--platform", "z80")
    assert code == 5
    assert "unknown platform" in stderr
    code, _, stderr = run_cli(capsys, "report", "--all", "--network", "A")
    assert code == 5
    assert "--all" in stderr


# ---------------------------------------------------------------------------
# budget

def test_budget_json_default_scenario(capsys):
    code, stdout, _ = run_cli(capsys, "budget", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["scenario"] == "indoor-day"
    assert doc["platform"] == "ri5cy_multi8"
    assert doc["daily_intake_j"] == pytest.approx(21.5136, abs=1e-9)
    assert doc["detection_energy_j"] == pytest.approx(602.2e-6, rel=1e-9)
    assert doc["max_detections_per_day"] == 35725
    assert doc["max_detections_per_minute"] == pytest.approx(24.809, abs=5e-4)
    assert "simulation" not in doc


def test_budget_teg_hours_flag(capsys):
    code, stdout, _ = run_cli(capsys, "budget", "--teg-hours", "23", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["daily_intake_j"] == pytest.approx(21.4272, abs=1e-9)


def test_budget_outdoor_scenario(capsys):
    code, stdout, _ = run_cli(
        capsys, "budget", "--scenario", "outdoor-1h", "--platform", "cortex_m4", "--json"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["daily_intake_j"] == pytest.approx(88.9596, abs=1e-9)
    assert doc["detection_energy_j"] == pytest.approx(606.1e-6, rel=1e-9)


def test_budget_unknown_scenario_lists_builtins(capsys):
    code, _, stderr = run_cli(capsys, "budget", "--scenario", "moonbase")
    assert code == 5
    assert "indoor-day" in stderr and "outdoor-1h" in stderr


def test_budget_teg_hours_outside_indoor_day(capsys):
    code, _, stderr = run_cli(
        capsys, "budget", "--scenario", "outdoor-1h", "--teg-hours", "12"
    )
    assert code == 5
    assert "indoor-day" in stderr


def test_budget_week_at_fixed_rate(capsys):
    code, stdout, _ = run_cli(
        capsys, "budget", "--days", "7", "--rate", "24", "--json"
    )
    assert code == 0
    sim = json.loads(stdout)["simulation"]
    assert sim["days"] == 7
    assert sim["brownout"] is False
    assert sim["first_brownout_s"] is None
    assert sim["unmet_j"] == 0.0
    # each day refills the battery during the 6 h solar window, then the
    #18 h TEG-only stretch drains it; the day ends mid-drain
    load_nw = round(24 * 602.2e-6 * 1e9 / 60)
    overnight_drain_j = 18 * 3600 * (load_nw - 24000) / 1e9
    assert sim["final_charge_j"] == pytest.approx(1598.4 - overnight_drain_j, abs=1e-9)
    assert sim["max_charge_j"] == 1598.4
    assert sim["intake_j"] == pytest.approx(7 * 21.5136, abs=1e-6)


def test_budget_overdraw_browns_out(capsys):
    code, stdout, _ = run_cli(
        capsys, "budget", "--days", "2", "--rate", "100", "--battery-mah", "1",
        "--json",
    )
    assert code == 0
    sim = json.loads(stdout)["simulation"]
    assert sim["brownout"] is True
    assert sim["first_brownout_s"] is not None
    assert sim["unmet_j"] > 0.0
    assert sim["min_charge_j"] == 0.0


def test_budget_soc_csv(capsys, tmp_path):
    soc = tmp_path / "soc.csv"
    code, stdout, _ = run_cli(
        capsys, "budget", "--days", "1", "--rate", "24",
        "--start-charge", "0.5", "--soc-out", str(soc), "--json",
    )
    assert code == 0
    lines = soc.read_text().splitlines()
    assert lines[0] == "t_s,charge_j"
    assert len(lines) == 1 + 86400
    assert lines[1].split(",")[0] == "0"
    final = json.loads(stdout)["simulation"]["final_charge_j"]
    assert float(lines[-1].split(",")[1]) == pytest.approx(final, rel=1e-10)


def test_budget_start_charge_validation(capsys):
    code, _, stderr = run_cli(
        capsys, "budget", "--days", "1", "--start-charge", "1.5"
    )
    assert code == 5
    assert "--start-charge" in stderr


@pytest.mark.parametrize(
    "flag,value", [("--rate", "nan"), ("--rate", "inf"), ("--battery-volts", "inf")]
)
def test_budget_non_finite_arguments_are_config_errors(capsys, flag, value):
    code, stdout, stderr = run_cli(capsys, "budget", "--days", "1", flag, value)
    assert code == 5
    assert stdout == ""
    assert "finite" in stderr


def test_budget_scenario_file(capsys, tmp_path):
    doc = (
        "name: teg-only\n"
        "segments:\n"
        "  - duration_h: 24\n"
        "    sources:\n"
        "      - {kind: teg, condition: cool-room-wind}\n"
    )
    path = tmp_path / "teg.yaml"
    path.write_text(doc)
    code, stdout, _ = run_cli(
        capsys, "budget", "--scenario-file", str(path), "--json"
    )
    assert code == 0
    out = json.loads(stdout)
    assert out["scenario"] == "teg-only"
    assert out["daily_intake_j"] == pytest.approx(86400 * 155.4e-6, rel=1e-12)


def test_budget_text_mode(capsys):
    code, stdout, _ = run_cli(capsys, "budget")
    assert code == 0
    assert "daily intake:      21.5136 J" in stdout
    assert "35725 detections/day" in stdout


# ---------------------------------------------------------------------------
# footprint

def test_footprint_networks(capsys):
    code, stdout, _ = run_cli(capsys, "footprint", "--network", "A", "--json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["layer_sizes"] == [5, 50, 50, 3]
    assert doc["neurons"] == 108
    assert doc["weights"] == 3003
    assert doc["total_bytes"] == 13772

    code, stdout, _ = run_cli(capsys, "footprint", "--network", "B", "--json")
    assert code == 0
    assert json.loads(stdout)["total_bytes"] == 346032


def test_footprint_sizes_and_model(capsys, data_dir):
    code, stdout, _ = run_cli(capsys, "footprint", "--sizes", "1,1", "--json")
    assert code == 0
    assert json.loads(stdout)["total_bytes"] == 56

    code, stdout, _ = run_cli(
        capsys, "footprint", "--model", str(data_dir / "hand_2_2_1.net"), "--json"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["layer_sizes"] == [2, 2, 1]
    assert doc["weights"] == 9


def test_footprint_text_mode(capsys):
    code, stdout, _ = run_cli(capsys, "footprint", "--network", "A")
    assert code == 0
    assert "total bytes:  13772 (13.772 kB)" in stdout


def test_footprint_requires_exactly_one_source(capsys, data_dir):
    code, _, _ = run_cli(capsys, "footprint")
    assert code == 5
    code, _, _ = run_cli(
        capsys, "footprint", "--network", "A", "--sizes", "2,2"
    )
    assert code == 5


# ---------------------------------------------------------------------------
# determinism

def test_cli_output_is_byte_stable(capsys, data_dir, tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "features", str(data_dir / "ecg_60s.csv"),
            str(data_dir / "gsr_60s.csv"), "-o", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    runs = []
    for _ in range(2):
        code, stdout, _ = run_cli(capsys, "budget", "--days", "1", "--json")
        assert code == 0
        runs.append(stdout)
    assert runs[0] == runs[1]


def test_model_files_round_trip_through_cli(capsys, data_dir, tmp_path):
    # quantize writes a file the library parses back to identical weights
    out = tmp_path / "q.net"
    code, _, _ = run_cli(
        capsys, "quantize", str(data_dir / "network_a_random.net"), "-o", str(out)
    )
    assert code == 0
    fp = load_fann(out.read_text())
    float_net = load_fann((data_dir / "network_a_random.net").read_text())
    assert fp.layer_sizes == float_net.layer_sizes
