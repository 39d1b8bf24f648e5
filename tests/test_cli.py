"""End-to-end tests of the command-line interface.

Golden-file tests pin the exact bytes the pipeline produces for the checked-in
60 s recording, so any numeric or formatting drift in the feature extractor or
classifier shows up as a diff. The rest covers each subcommand's flags, the
JSON mode, and the exit-code contract (0 ok, 2 parse, 3 data, 4 shape,
5 config).
"""

import json
import math

import numpy as np
import pytest
import yaml

from stresswatch import (
    builtin_calibration,
    calibration_report,
    dequantize_network,
    infer_fixed,
    infer_float,
    load_fann,
    quantize,
)
from stresswatch import biosignal_features as bf
from stresswatch import cli, nn_core, perf_model
from stresswatch import harvest_sim as hs
from stresswatch.cli import main as cli_main
from stresswatch.errors import ParseError


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


def test_features_json_matches_golden_bytes(capsys, data_dir, tmp_path):
    # NN50 is written as a JSON integer ("nn50": 30), the other columns as floats
    out = tmp_path / "features.json"
    code, stdout, _ = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), "--json", "-o", str(out),
    )
    assert code == 0 and stdout == ""
    assert out.read_bytes() == (data_dir / "golden_features.json").read_bytes()
    assert b'"nn50": 30,' in out.read_bytes()


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


@pytest.mark.parametrize("which,row", [("ecg", 19), ("gsr", 8)])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_features_non_finite_sample_is_a_data_error(capsys, data_dir, tmp_path, which, row, value):
    paths = {"ecg": data_dir / "ecg_60s.csv", "gsr": data_dir / "gsr_60s.csv"}
    lines = paths[which].read_text().splitlines()
    lines[row + 1] = lines[row + 1].split(",")[0] + "," + value
    paths[which] = tmp_path / f"{which}.csv"
    paths[which].write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run_cli(capsys, "features", str(paths["ecg"]), str(paths["gsr"]))
    assert code == 3
    assert stdout == ""
    assert str(paths[which]) in stderr and f"data row {row}" in stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_features_non_finite_gsr_threshold_is_a_config_error(capsys, tmp_path, value):
    # checked before any input is opened: the missing files would exit 2
    code, stdout, stderr = run_cli(
        capsys, "features", str(tmp_path / "no_ecg.csv"), str(tmp_path / "no_gsr.csv"),
        f"--gsr-threshold={value}",
    )
    assert code == 5
    assert stdout == ""
    assert "--gsr-threshold" in stderr


def test_missing_input_file_is_a_parse_error(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "features", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")
    )
    assert code == 2


# ---------------------------------------------------------------------------
# CSV input: the bulk reader against the row scanner

ECG_H = ("time_s", "ecg")
CSV_CASES = {
    "plain": (b"time_s,ecg\n0,1.5\n0.5,-2e-3\n", ECG_H, float, [[0, 1.5], [0.5, -2e-3]]),
    "blank lines": (b"time_s,ecg\n\n0,1\n\n\n2,3\n\n", ECG_H, float, [[0, 1], [2, 3]]),
    "whitespace-only line": (b"time_s,ecg\n0,1\n  \t \n2,3\n", ECG_H, float, [[0, 1], [2, 3]]),
    "crlf": (b"time_s,ecg\r\n0,1\r\n2,3\r\n", ECG_H, float, [[0, 1], [2, 3]]),
    "cr only": (b"time_s,ecg\r0,1\r2,3\r", ECG_H, float, [[0, 1], [2, 3]]),
    "bom": (b"\xef\xbb\xbftime_s,ecg\n0,1\n", ECG_H, float, [[0, 1]]),
    "padded header and cells": (b" time_s , ecg \n 0 , 1 \n", ECG_H, float, [[0, 1]]),
    "no final newline": (b"time_s,ecg\n0,1\n2,3", ECG_H, float, [[0, 1], [2, 3]]),
    "quoted cells": (b'time_s,ecg\n"0",1\n2,"3"\n', ECG_H, float, [[0, 1], [2, 3]]),
    "quoted header": (b'"time_s",ecg\n0,1\n', ECG_H, float, [[0, 1]]),
    "underscore digits": (b"time_s,ecg\n0,1_0\n", ECG_H, float, [[0, 10]]),
    "trailing comma": (b"time_s,ecg\n0,1\n2,3,\n", ECG_H, float, 3),
    "empty cell": (b"time_s,ecg\n0,1\n,3\n", ECG_H, float, 3),
    "three columns throughout": (b"time_s,ecg\n0,1,2\n3,4,5\n", ECG_H, float, 2),
    "non-numeric cell": (b"time_s,ecg\n0,1\n2,3\noops,4\n", ECG_H, float, 4),
    "bad header": (b"time,ecg\n0,1\n", ECG_H, float, 1),
    "blank first line": (b"\ntime_s,ecg\n0,1\n", ECG_H, float, 2),
    "header only": (b"time_s,ecg\n", ECG_H, float, []),
    "header only, no newline": (b"time_s,ecg", ECG_H, float, []),
    "int labels": (b"label\n0\n2\n\n1\n", ("label",), int, [[0], [2], [1]]),
    "int labels written as 1.0": (b"label\n0\n1.0\n", ("label",), int, 3),
    "int label with underscore digits": (b"label\n0\n1_0\n", ("label",), int, [[0], [10]]),
    "int label beyond int64": (b"label\n0\n99999999999999999999\n", ("label",), int, 3),
}


def read_outcome(reader, path, header, kind):
    try:
        rows = reader(str(path), header, kind)
    except ParseError as exc:
        return exc.line, str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_read_csv_matches_row_scanner(tmp_path, case):
    raw, header, kind, expected = CSV_CASES[case]
    path = tmp_path / "in.csv"
    path.write_bytes(raw)
    got = read_outcome(cli._read_csv, path, header, kind)
    assert got == read_outcome(cli._scan_csv, path, header, kind)
    if isinstance(expected, int):
        assert got[0] == expected                        # the ParseError's line
    else:
        want = np.array(expected, dtype=kind).reshape(-1, len(header))
        assert got == (want.dtype, want.shape, want.tobytes())


def test_read_csv_matches_row_scanner_on_random_files(tmp_path):
    tokens = ["1", "-2.5", " 3 ", "1e400", "nan", "-inf", "1_0", '"7"', "", " ", "x",
              "1.0", "+4", "\u00a05", "\u0663", "99999999999999999999"]
    rng = np.random.default_rng(41)
    path = tmp_path / "in.csv"
    for _ in range(400):
        header, kind = [(ECG_H, float), (("label",), int), (bf.FEATURE_NAMES, float)][
            int(rng.integers(3))]
        lines = [",".join(header)]
        for _ in range(int(rng.integers(0, 5))):
            ncol = len(header) + int(rng.choice([0, 0, 0, -1, 1]))
            pool = tokens if rng.random() < 0.5 else tokens[:3]
            lines.append(",".join(str(rng.choice(pool)) for _ in range(max(ncol, 0))))
        eol = str(rng.choice(["\n", "\r\n", "\r"]))
        path.write_bytes((eol.join(lines) + eol).encode())
        want = read_outcome(cli._scan_csv, path, header, kind)
        assert read_outcome(cli._read_csv, path, header, kind) == want


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


@pytest.mark.parametrize("fixed", [(), ("--fixed",)], ids=["plain", "fixed"])
def test_classify_frac_bits_must_match_a_fixed_model_file(capsys, data_dir, tmp_path, fixed):
    """A fixed-point file has its own format: naming it again is allowed,
    naming another one is a configuration error, not a silent Q16.16 run."""
    args = ("classify", str(data_dir / "golden_features.csv"),
            "--model", str(data_dir / "network_a_q16.net"), *fixed)
    _, want, _ = run_cli(capsys, *args)
    code, stdout, _ = run_cli(capsys, *args, "--frac-bits", "16")
    assert code == 0 and stdout == want
    out = tmp_path / "out.csv"
    code, stdout, stderr = run_cli(capsys, *args, "--frac-bits", "8", "-o", str(out))
    assert code == 5
    assert stdout == "" and not out.exists()
    assert stderr.startswith("error: --frac-bits 8 differs from the 16 fractional bits")


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


def test_train_label_beyond_int64_is_a_parse_error(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    lab.write_text("label\n0\n99999999999999999999\n")
    code, _, stderr = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(tmp_path / "x.net"),
        "--sizes", "5,6,3", "--epochs", "5",
    )
    assert code == 2
    assert "line 3" in stderr and "Traceback" not in stderr


def test_train_bad_sizes_flag(capsys, tmp_path):
    feat, lab, _ = write_training_set(tmp_path)
    code, _, _ = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(tmp_path / "x.net"),
        "--sizes", "5,banana,3", "--epochs", "5",
    )
    assert code == 5


def set_feature_cell(path, row, col, text):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("value,extra", [("nan", ()), ("inf", ("--no-normalize",))])
def test_train_rejects_a_non_finite_feature_row(capsys, tmp_path, value, extra):
    feat, lab, _ = write_training_set(tmp_path)
    set_feature_cell(feat, 7, 2, value)
    model = tmp_path / "x.net"
    code, stdout, stderr = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(model), "--epochs", "5", *extra
    )
    assert code == 3
    assert stderr == "error: feature row 7 contains a non-finite value\n"
    assert stdout == "" and list(tmp_path.glob("x.net*")) == []


@pytest.mark.parametrize("value", ["1e300", "-1.7e308"])
def test_train_rejects_a_column_whose_statistics_overflow(capsys, tmp_path, value):
    feat, lab, _ = write_training_set(tmp_path)
    set_feature_cell(feat, 11, 3, value)
    set_feature_cell(feat, 12, 3, value)
    model = tmp_path / "x.net"
    code, stdout, stderr = run_cli(
        capsys, "train", str(feat), str(lab), "-o", str(model), "--epochs", "5"
    )
    assert code == 3
    assert stderr == (
        "error: feature column gsrh_uS overflows: "
        "its mean or standard deviation is not finite\n"
    )
    assert stdout == "" and list(tmp_path.glob("x.net*")) == []


def test_train_matches_the_snapshot(capsys, data_dir, tmp_path, monkeypatch):
    # regenerated by tools/gen_golden.py; the CLI defaults train 5-50-50-3
    # for 500 epochs at learning rate 0.1 from seed 0
    feat, lab, _ = write_training_set(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(
        capsys, "train", str(feat), str(lab), "-o", "golden_train.net", "--json"
    )
    assert code == 0
    assert stdout == (data_dir / "golden_train.json").read_text()
    for name in ("golden_train.net", "golden_train.net.norm.json"):
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()


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


@pytest.mark.parametrize("argv,flag", [
    (("quantize", "{net}", "--frac-bits", "31"), "--frac-bits"),
    (("quantize", "{net}", "--frac-bits", "0"), "--frac-bits"),
    (("classify", "{feats}", "--model", "{net}", "--fixed", "--frac-bits", "0"), "--frac-bits"),
    (("classify", "{feats}", "--model", "{net}", "--fixed", "--frac-bits", "31"), "--frac-bits"),
    (("train", "{feats}", "{labels}", "--epochs", "-3"), "--epochs"),
    (("train", "{feats}", "{labels}", "--learning-rate", "nan"), "--learning-rate"),
    (("train", "{feats}", "{labels}", "--learning-rate", "inf"), "--learning-rate"),
    (("train", "{feats}", "{labels}", "--learning-rate=-inf"), "--learning-rate"),
    (("train", "{feats}", "{labels}", "--seed", "-1"), "--seed"),
    (("classify", "{feats}", "--model", "{net}", "--frac-bits", "31"), "--frac-bits"),
    (("classify", "{feats}", "--model", "{net}", "--frac-bits", "8"), "--frac-bits needs --fixed"),
])
def test_bad_numeric_flags_are_config_errors(capsys, data_dir, tmp_path, argv, flag):
    feats, labels, _ = write_training_set(tmp_path)
    paths = {"net": data_dir / "network_a_random.net", "feats": feats, "labels": labels}
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, *(a.format(**paths) for a in argv), "-o", str(out)
    )
    assert code == 5
    assert stdout == "" and not out.exists()
    assert stderr.startswith("error: " + flag)


@pytest.mark.parametrize("doc", [
    {"mean": [0.0] * 5, "std": [1.0, 1.0, 0.0, 1.0, 1.0]},
    {"mean": [0.0] * 4, "std": [1.0] * 5},
    {"mean": [0.0, 0.0, float("nan"), 0.0, 0.0], "std": [1.0] * 5},
    {"mean": [0.0, float("-inf"), 0.0, 0.0, 0.0], "std": [1.0] * 5},
    {"mean": [0.0] * 5, "std": [1.0, 1.0, 1.0, float("nan"), 1.0]},
    {"mean": [0.0] * 5, "std": [1.0, 1.0, 1.0, 1.0, float("inf")]},
], ids=["zero-std", "short-mean", "nan-mean", "-inf-mean", "nan-std", "inf-std"])
def test_classify_rejects_a_malformed_sidecar(capsys, data_dir, tmp_path, doc):
    sidecar = tmp_path / "norm.json"
    # json.dumps spells the non-finite values NaN, Infinity and -Infinity
    sidecar.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_random.net"), "--norm-file", str(sidecar),
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {sidecar}: normalization sidecar is malformed\n"


def test_train_zero_epochs_writes_the_initial_network(capsys, tmp_path):
    feats, labels, _ = write_training_set(tmp_path)
    code, _, _ = run_cli(
        capsys, "train", str(feats), str(labels), "-o", str(tmp_path / "m.net"),
        "--epochs", "0", "--seed", "4",
    )
    assert code == 0
    nn_core.write_fann(nn_core.build_mlp([5, 50, 50, 3], seed=4), tmp_path / "init.net")
    assert (tmp_path / "m.net").read_bytes() == (tmp_path / "init.net").read_bytes()


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


def calibration_doc():
    t = builtin_calibration()
    return {"platforms": {p: {"clock_hz": t.clock_hz[p], "cycles": dict(t.cycles[p]),
                              "energy_uj": dict(t.energy_uj[p])} for p in t.platforms}}


# a broken table (as a change to calibration_doc()'s platforms) -> a word the error names
CALIBRATION_FAULTS = {
    "no-baseline": (lambda ps: ps.pop("cortex_m4"), "'cortex_m4'"),
    "nan-energy": (lambda ps: ps["ibex"]["energy_uj"].update(A=math.nan), "energy_uj"),
    "inf-clock": (lambda ps: ps["ibex"].update(clock_hz=math.inf), "clock_hz"),
    "inf-cycles": (lambda ps: ps["ibex"]["cycles"].update(A=math.inf), "'ibex'"),
    "fractional-cycles": (lambda ps: ps["cortex_m4"]["cycles"].update(A=30210.9), "'cortex_m4'"),
    "true-clock": (lambda ps: ps["ibex"].update(clock_hz=True), "'ibex'"),
    "inconsistent-power": (
        lambda ps: ps["ibex"]["energy_uj"].update(B=ps["ibex"]["energy_uj"]["B"] * 1.10),
        "'ibex'",
    ),
    # every time is inf and every power 0 W, which the 3% rule cannot see
    "subnormal-clock": (lambda ps: ps["ibex"].update(clock_hz=1.0e-320), "'ibex'"),
    # both powers are inf, so the 3% rule compares nan, though they differ 23-fold
    "inf-power": (
        lambda ps: ps["ibex"].update(clock_hz=1.0e308, energy_uj={"A": 1.0e300, "B": 1.0e300}),
        "'ibex'",
    ),
    # the powers (9.8e307 and 1.7e308 W) differ by 41%, but their sum is inf
    "inf-power-sum": (
        lambda ps: ps["ibex"].update(clock_hz=1.0e300, energy_uj={"A": 4.0e18, "B": 1.6e20}),
        "'ibex'",
    ),
}


@pytest.mark.parametrize("fault", sorted(CALIBRATION_FAULTS))
def test_report_rejects_a_bad_calibration_table(capsys, tmp_path, fault):
    doc = calibration_doc()
    breaks, named = CALIBRATION_FAULTS[fault]
    breaks(doc["platforms"])
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, stdout, stderr = run_cli(capsys, "report", "--all", "--calibration", str(path))
    assert code == 5
    assert stdout == ""
    assert named in stderr and "Traceback" not in stderr


def test_budget_rejects_a_table_whose_powers_disagree(capsys, tmp_path):
    doc = calibration_doc()
    CALIBRATION_FAULTS["inconsistent-power"][0](doc["platforms"])
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, stdout, stderr = run_cli(capsys, "budget", "--calibration", str(path))
    assert code == 5
    assert stdout == ""
    assert "'ibex'" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("fault", ["subnormal-clock", "inf-power", "inf-power-sum"])
def test_budget_rejects_a_table_whose_times_or_powers_are_not_finite(capsys, tmp_path, fault):
    doc = calibration_doc()
    CALIBRATION_FAULTS[fault][0](doc["platforms"])
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, stdout, stderr = run_cli(capsys, "budget", "--calibration", str(path))
    assert code == 5
    assert stdout == ""
    assert "positive, finite time and active power" in stderr and "Traceback" not in stderr


def test_budget_takes_a_calibration_table_without_the_m4_baseline(capsys, tmp_path):
    doc = calibration_doc()
    del doc["platforms"]["cortex_m4"]
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, stdout, _ = run_cli(capsys, "budget", "--calibration", str(path), "--json")
    assert code == 0
    assert json.loads(stdout)["max_detections_per_day"] == 35725


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


@pytest.mark.parametrize("chunk", [None, 7, 1000, 86400])
def test_budget_soc_csv_is_the_same_across_chunk_boundaries(capsys, tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(cli, "SOC_OUT_CHUNK_LINES", chunk)
    soc = tmp_path / "soc.csv"
    code, _, _ = run_cli(
        capsys, "budget", "--days", "1", "--rate", "24",
        "--start-charge", "0.5", "--soc-out", str(soc),
    )
    assert code == 0
    scenario = hs.indoor_day_scenario(solar_hours=6.0, teg_hours=24.0)
    e_det = perf_model.detection_energy("ri5cy_multi8", builtin_calibration())
    cap = hs.BATTERY_CAPACITY_MAH * 3.6 * hs.BATTERY_NOMINAL_V
    battery = hs.BatteryState(capacity_j=cap, charge_j=cap * 0.5)
    sim = hs.simulate_soc(scenario, battery, 24.0, e_det, days=1)
    want = "t_s,charge_j\n" + "".join(
        f"{i},{q:.12g}\n" for i, q in enumerate(hs.charge_series_nj(sim) / 1e9)
    )
    assert soc.read_bytes() == want.encode("ascii")


def soc_lines_reference(start, n):
    q = n / 1e9
    return "".join(f"{i},{v:.12g}\n" for i, v in enumerate(q.tolist(), start)).encode("ascii")


# charge (nJ) -> its .12g spelling in joules
SOC_NJ = {
    0: "0",
    1: "1e-09",                        # exponent: the chunk falls back
    99999: "9.9999e-05",
    10**5: "0.0001",
    123456: "0.000123456",
    500000001: "0.500000001",
    959000000000: "959",
    999999999999: "999.999999999",
    10**12: "1000",
    1000000000005: "1000",             # tie, the double lies below it
    1000000000015: "1000.00000001",    # tie, the double lies above it
    1000001953125: "1000.00195312",    # exact binary tie: half to even
    1598400000000: "1598.4",
    9999999999985: "9999.99999999",    # tie, the double lies above it
    9999999999994: "9999.99999999",
    9999999999995: "9999.99999999",    # could round to 5 integer digits: falls back
    9999999999996: "10000",
    10**13: "10000",
}


@pytest.mark.parametrize("start", [0, 9999, 10000, 10**8 - 1])
@pytest.mark.parametrize("nj", sorted(SOC_NJ))
def test_soc_lines_match_the_f_string(start, nj):
    n = np.array([nj], dtype=np.int64)
    assert cli._soc_lines(start, n) == f"{start},{SOC_NJ[nj]}\n".encode()
    assert cli._soc_lines(start, n) == soc_lines_reference(start, n)


@pytest.mark.parametrize("start", [0, 9990, 10**8 - 3])
def test_soc_lines_match_the_f_string_on_whole_chunks(start):
    crafted = np.array(sorted(SOC_NJ), dtype=np.int64)
    fast = crafted[(crafted >= 10**5) & (crafted < 9999999999995)]
    # each value below sends a chunk of otherwise fast values to the f-string
    odd = [20000, 9999999999995]
    for n in (crafted, fast, fast[:0], *(np.append(fast, v) for v in odd)):
        assert cli._soc_lines(start, n) == soc_lines_reference(start, n)
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = rng.integers(0, 1.6e12, 20000, endpoint=True)
        assert cli._soc_lines(start, n) == soc_lines_reference(start, n)


def fast_soc_lines(monkeypatch, start, n):
    """``cli._soc_lines(start, n)``, failing unless it took the digit tables."""
    calls = []
    tables = cli._digit_tables

    def spy():
        calls.append(1)
        return tables()

    monkeypatch.setattr(cli, "_digit_tables", spy)
    out = cli._soc_lines(start, n)
    assert calls, "the chunk fell back to the f-string"
    return out


def test_soc_lines_below_1000_joules_match_the_f_string(monkeypatch):
    # no charge reaches 1000 J, so the chunk skips the rounding pass
    rng = np.random.default_rng(11)
    n = rng.integers(10**5, 10**12, 65536)
    n[::5] = n[::5] // 10**9 * 10**9       # whole joules: no point, or 0
    n[1::5] = n[1::5] // 10 * 10           # the last decimal digit is 0
    n[2::5] = n[2::5] // 10**5 * 10**5     # the first decimal group ends the number
    assert (n < 10**12).all()
    assert (n == 0).any() and ((n % 10**9 == 0) & (n != 0)).any()
    assert fast_soc_lines(monkeypatch, 0, n) == soc_lines_reference(0, n)


@pytest.mark.parametrize(
    "start", [10**4 - 100, 10**8 - 65536], ids=["crosses-10000", "ends-at-10^8-1"]
)
def test_soc_lines_match_the_f_string_at_the_index_limits(monkeypatch, start):
    rng = np.random.default_rng(start)
    n = rng.integers(10**5, 1.6e12, 65536, endpoint=True)
    assert fast_soc_lines(monkeypatch, start, n) == soc_lines_reference(start, n)


def test_budget_soc_csv_over_three_days_matches_the_f_string(capsys, tmp_path, monkeypatch):
    # 259 200 lines: three whole chunks and a part of one
    sims = []
    real = hs.simulate_soc
    monkeypatch.setattr(hs, "simulate_soc", lambda *a, **k: sims.append(real(*a, **k)) or sims[-1])
    soc = tmp_path / "soc.csv"
    code, _, _ = run_cli(capsys, "budget", "--days", "3", "--start-charge", "0.6",
                         "--soc-out", str(soc))
    assert code == 0
    n = hs.charge_series_nj(sims[0])
    assert n.size == 259200 > 3 * cli.SOC_OUT_CHUNK_LINES
    assert soc.read_bytes() == b"t_s,charge_j\n" + soc_lines_reference(0, n)


@pytest.mark.parametrize("chunk", [7, 1000, 86400])
@pytest.mark.parametrize(
    "flags, regime",
    [
        (("--rate", "24", "--start-charge", "0.9"), "above 1000 J"),
        (("--rate", "24", "--start-charge", "1.0"), "spill"),
        (("--rate", "100", "--battery-mah", "1"), "brownout"),
        (("--start-charge", "0", "--battery-mah", "1e9"), "beyond int64 capacity"),
    ],
    ids=["above-1000J", "spill", "brownout", "beyond-int64-capacity"],
)
def test_budget_soc_csv_matches_the_f_string_in_every_regime(
    capsys, tmp_path, monkeypatch, chunk, flags, regime
):
    monkeypatch.setattr(cli, "SOC_OUT_CHUNK_LINES", chunk)
    runs = []
    real = hs.simulate_soc

    def simulate(scenario, battery, *args, **kwargs):
        runs.append((battery, real(scenario, battery, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(hs, "simulate_soc", simulate)
    soc = tmp_path / "soc.csv"
    code, _, _ = run_cli(capsys, "budget", "--days", "1", *flags, "--soc-out", str(soc))
    assert code == 0
    battery, sim = runs[0]
    n = hs.charge_series_nj(sim)
    series = n / 1e9
    # the capacity does not fit int64 nJ, but every charge held does
    reached = {"above 1000 J": series.min() > 1000, "spill": sim.spilled_j > 0,
               "brownout": series.min() == 0,
               "beyond int64 capacity": round(battery.capacity_j * 1e9) >= 2**63}
    assert reached[regime]
    assert soc.read_bytes() == b"t_s,charge_j\n" + soc_lines_reference(0, n)


def test_budget_soc_out_rejects_a_capacity_beyond_int64_nanojoules(capsys, tmp_path):
    # 1e9 mAh at 3.7 V is 1.3e10 J, 1.3e19 nJ: past int64, so the per-second
    # series cannot hold it; without --soc-out the same run is fine
    soc = tmp_path / "soc.csv"
    args = ("budget", "--days", "1", "--battery-mah", "1e9")
    code, stdout, stderr = run_cli(capsys, *args, "--soc-out", str(soc))
    assert code == 5
    assert stdout == ""
    assert "--battery-mah" in stderr and "--battery-volts" in stderr
    assert "Traceback" not in stderr
    assert not soc.exists()
    code, stdout, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    assert json.loads(stdout)["simulation"]["spilled_j"] > 0


def test_budget_soc_out_with_a_load_beyond_int64_nanojoules(capsys, tmp_path):
    # the net loss of one second exceeds int64 nJ: the charge is empty after
    # the first second and stays there, as the run without --soc-out reports
    soc = tmp_path / "soc.csv"
    code, stdout, _ = run_cli(capsys, "budget", "--days", "1", "--rate", "1e20",
                              "--soc-out", str(soc), "--json")
    assert code == 0
    assert json.loads(stdout)["simulation"]["brownout"] is True
    lines = soc.read_text().splitlines()
    assert lines[0] == "t_s,charge_j"
    assert len(lines) == 1 + 86400
    assert {line.split(",")[1] for line in lines[1:]} == {"0"}


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


@pytest.mark.parametrize("value", ["abc", "[1]", "true"])
def test_budget_scenario_file_with_a_non_numeric_duration(capsys, tmp_path, value):
    path = tmp_path / "bad.yaml"
    path.write_text(f"segments:\n  - duration_s: {value}\n")
    code, stdout, stderr = run_cli(capsys, "budget", "--scenario-file", str(path))
    assert code == 5
    assert stdout == ""
    assert f"{path}: segment 0 duration_s must be a number" in stderr


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


@pytest.mark.parametrize("token", ["2147483648", "-2147483649"])
def test_footprint_fixed_weight_outside_int32_names_its_line(capsys, data_dir, tmp_path, token):
    lines = (data_dir / "network_a_q16.net").read_text().splitlines()
    lines[9] = " ".join([token] + lines[9].split()[1:])
    model = tmp_path / "bad.net"
    model.write_text("\n".join(lines) + "\n")
    code, stdout, stderr = run_cli(capsys, "footprint", "--model", str(model))
    assert code == 3
    assert stdout == ""
    assert stderr == f"error: line 10: weight token '{token}' is outside the 32-bit range\n"


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
