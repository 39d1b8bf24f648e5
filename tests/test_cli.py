"""End-to-end tests of the command-line interface.

Golden-file tests pin the exact bytes the pipeline produces for the checked-in
60 s recording, so any numeric or formatting drift in the feature extractor or
classifier shows up as a diff. The rest covers each subcommand's flags, the
JSON mode, and the exit-code contract (0 ok, 2 parse, 3 data, 4 shape,
5 config).
"""

import contextlib
import csv
import dataclasses
import gzip
import json
import math
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from stresswatch import (
    build_mlp,
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
from stresswatch.errors import InsufficientDataError, ParseError


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


@pytest.mark.parametrize("gsr_rows,fault", [
    ("0.5,2.0\n0.5,2.1\n", "{gsr}: time_s must be strictly increasing"),
    ("0.5,2.0\n", "GSR recording has fewer than 2 samples"),
])
def test_features_with_both_files_broken_reports_the_gsr(
    capsys, data_dir, tmp_path, gsr_rows, fault
):
    # the GSR trace is built before the ECG is windowed, so the GSR's fault
    # is found first even when the ECG's time base is broken too
    src = (data_dir / "ecg_60s.csv").read_text().splitlines()
    src[3], src[4] = src[4], src[3]
    ecg = tmp_path / "ecg.csv"
    ecg.write_text("\n".join(src) + "\n")
    gsr = tmp_path / "gsr.csv"
    gsr.write_text("time_s,gsr_uS\n" + gsr_rows)
    code, stdout, stderr = run_cli(capsys, "features", str(ecg), str(gsr))
    assert code == 3
    assert stdout == ""
    assert stderr == f"error: {fault.format(gsr=gsr)}\n"


@pytest.mark.parametrize("flag,value", [("--overlap", "1.5"), ("--window-s", "0")])
def test_features_bad_window_flags_are_config_errors(capsys, data_dir, flag, value):
    code, _, stderr = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), flag, value,
    )
    assert code == 5
    assert "error:" in stderr


def test_features_more_windows_than_samples_is_a_config_error(capsys, data_dir):
    # rejected before the window array is allocated
    code, stdout, stderr = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"),
        str(data_dir / "gsr_60s.csv"), "--window-s", "1e-300",
    )
    assert code == 5
    assert stdout == ""
    assert stderr == (
        "error: a 1e-300 s window at overlap 0.5 gives more windows "
        "than the 15360 ECG samples\n"
    )


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
def test_features_non_finite_gsr_threshold_is_a_config_error(capsys, data_dir, tmp_path, value):
    # the feature code refuses it, after the inputs are read
    out = tmp_path / "f.csv"
    code, stdout, stderr = run_cli(
        capsys, "features", str(data_dir / "ecg_60s.csv"), str(data_dir / "gsr_60s.csv"),
        f"--gsr-threshold={value}", "-o", str(out),
    )
    assert (code, stdout, stderr) == (5, "", f"error: GSR threshold must be finite, got {value}\n")
    assert not out.exists()


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
    # the header is one csv row over two lines; the bulk read skips both
    "quoted header over two lines": (b'time_s,"ecg\n"\n0,1\n', ECG_H, float, [[0, 1]]),
    "underscore digits": (b"time_s,ecg\n0,1_0\n", ECG_H, float, [[0, 10]]),
    "trailing comma": (b"time_s,ecg\n0,1\n2,3,\n", ECG_H, float, 3),
    "empty cell": (b"time_s,ecg\n0,1\n,3\n", ECG_H, float, 3),
    "three columns throughout": (b"time_s,ecg\n0,1,2\n3,4,5\n", ECG_H, float, 2),
    "non-numeric cell": (b"time_s,ecg\n0,1\n2,3\noops,4\n", ECG_H, float, 4),
    "bad header": (b"time,ecg\n0,1\n", ECG_H, float, 1),
    "blank first line": (b"\ntime_s,ecg\n0,1\n", ECG_H, float, 1),
    "empty file": (b"", ECG_H, float, 1),
    "blank lines only": (b"\n\n", ECG_H, float, 1),
    "header only": (b"time_s,ecg\n", ECG_H, float, []),
    "header only, no newline": (b"time_s,ecg", ECG_H, float, []),
    "int labels": (b"label\n0\n2\n\n1\n", ("label",), int, [[0], [2], [1]]),
    "int labels written as 1.0": (b"label\n0\n1.0\n", ("label",), int, 3),
    "int label with underscore digits": (b"label\n0\n1_0\n", ("label",), int, [[0], [10]]),
    "int label beyond int64": (b"label\n0\n99999999999999999999\n", ("label",), int, 3),
    "non-finite rows": (b"time_s,ecg\n0,1\n\n2,nan\n-inf,4\n", ECG_H, float,
                        [[0, 1], [2, math.nan], [-math.inf, 4]]),
    # numpy picks a decompressor from the suffix; the plain text must still parse
    "plain text named .csv.gz": (b"time_s,ecg\n0,1\n2,3\n", ECG_H, float, [[0, 1], [2, 3]],
                                 "in.csv.gz"),
    "plain text named .csv.xz": (b"time_s,ecg\n0,1\n2,3\n", ECG_H, float, [[0, 1], [2, 3]],
                                 "in.csv.xz"),
    # a local name holding a URL scheme, which numpy's data source must not fetch
    "name holding http:": (b"time_s,ecg\n0,1\n2,3\n", ECG_H, float, [[0, 1], [2, 3]],
                           "http:/x/in.csv"),
    "not utf-8": (b"time_s,ecg\n0,1\n2,\xff\n", ECG_H, float, None),
    # decoded in chunks: the header reads cleanly, and the body scanner finds it
    "not utf-8 after 64 kB": (b"time_s,ecg\n" + b"0,1\n" * 16384 + b"2,\xff\n", ECG_H, float,
                              None),
    "gzip data": (gzip.compress(b"time_s,ecg\n0,1\n"), ECG_H, float, None, "in.csv.gz"),
    # a quoted cell past the csv module's field size limit (131 072 characters)
    "huge quoted header cell": (b'time_s,"' + b"e" * 200000 + b'"\n0,1\n', ECG_H, float, 1),
    "huge quoted body cell": (b'time_s,ecg\n0,1\n2,"' + b"3" * 200000 + b'"\n', ECG_H, float,
                              3),
    # a row that spans lines moves every later row's error by the lines it took
    "bad row after a two-line cell": (b'time_s,ecg\n0,"1\n"\noops,2\n', ECG_H, float, 4),
    "bad row after a two-line header": (b'time_s,"ecg\n"\n0,1\noops,2\n', ECG_H, float, 4),
    "int label beyond int64 after a two-line cell": (
        b'label\n"0\n"\n99999999999999999999\n', ("label",), int, 4),
}


def scan_csv(path, header, kind):
    """The reference reader: the header row checked here, then the body by
    the row scanner alone, one csv row at a time."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = csv.reader(fh)
        try:
            cells = [c.strip() for c in next(rows, [])]
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not a UTF-8 text file") from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=rows.line_num) from None
        if cells != list(header):
            raise ParseError(
                f"expected header {','.join(header)!r}, got {','.join(cells)!r}", line=1
            )
        return cli._scan_csv(rows, path, header, kind)


def read_outcome(reader, path, header, kind):
    try:
        rows = reader(str(path), header, kind)
    except ParseError as exc:
        return exc.line, str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


def write_case(tmp_path, case):
    """The case's bytes in a file under ``tmp_path``, and the case's fields."""
    raw, header, kind, expected, *name = CSV_CASES[case]
    path = tmp_path / (name[0] if name else "in.csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(raw)
    return path, header, kind, expected


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_read_csv_matches_row_scanner(tmp_path, case):
    path, header, kind, expected = write_case(tmp_path, case)
    got = read_outcome(cli._read_csv, path, header, kind)
    assert got == read_outcome(scan_csv, path, header, kind)
    if expected is None:
        assert got == (None, f"{path}: not a UTF-8 text file")
    elif isinstance(expected, int):
        assert got[0] == expected                        # the ParseError's line
    else:
        want = np.array(expected, dtype=kind).reshape(-1, len(header))
        assert got == (want.dtype, want.shape, want.tobytes())


# well-formed files that numpy does not take, so only the row scanner reads them
SCANNER_ONLY = {
    "header only", "header only, no newline", "int label with underscore digits",
    "plain text named .csv.gz", "plain text named .csv.xz", "quoted cells",
    "underscore digits", "whitespace-only line",
}
# the physical lines a header takes, where that is not 1
HEADER_LINES = {"quoted header over two lines": 2}


@pytest.mark.parametrize("case", sorted(
    c for c, (_, _, _, want, *_) in CSV_CASES.items()
    if isinstance(want, list) and c not in SCANNER_ONLY
))
def test_read_csv_parses_a_clean_file_in_one_bulk_call(tmp_path, monkeypatch, case):
    """A file numpy takes never reaches the body scanner, and numpy gets an
    absolute path (handed an open file, it parses one line per ``next()``)
    and skips exactly the lines of the header."""
    path, header, kind, expected = write_case(tmp_path, case)
    calls = []
    loadtxt = np.loadtxt

    def spy(fname, *args, skiprows, **kwargs):
        calls.append((fname, skiprows))
        return loadtxt(fname, *args, skiprows=skiprows, **kwargs)

    def no_scan(rows, *args):
        raise AssertionError(f"the body after line {rows.line_num} went to the row scanner")

    monkeypatch.setattr(cli.np, "loadtxt", spy)
    monkeypatch.setattr(cli, "_scan_csv", no_scan)
    rows = cli._read_csv(str(path), header, kind)
    assert rows.tobytes() == np.array(expected, dtype=kind).tobytes()
    assert len(calls) == 1
    fname, skiprows = calls[0]
    assert type(fname) is str and os.path.isabs(fname)
    assert skiprows == HEADER_LINES.get(case, 1)


@contextlib.contextmanager
def pipe_of(raw):
    """A ``/dev/fd`` path to the read end of a pipe that a thread fills with ``raw``."""
    r, w = os.pipe()

    def write():
        with open(w, "wb") as fh:
            fh.write(raw)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_csv_takes_a_pipe(data_dir):
    """A pipe cannot be opened a second time: the bulk read goes on from the
    handle that read the header, and gets every row."""
    raw = (data_dir / "ecg_60s.csv").read_bytes()   # more than a pipe buffer holds
    with pipe_of(raw) as path:
        rows = cli._read_csv(path, ECG_H)
    assert rows.tobytes() == cli._read_csv(str(data_dir / "ecg_60s.csv"), ECG_H).tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_read_csv_reads_a_pipe_like_a_file(tmp_path, case):
    """A pipe's header is checked as a file's, and a body the bulk parser
    does not take goes to the row scanner, which reads the same bytes again:
    the outcome is the file's, not an empty read."""
    path, header, kind, expected = write_case(tmp_path, case)
    with pipe_of(path.read_bytes()) as fd_path:
        got = read_outcome(cli._read_csv, fd_path, header, kind)
    want = read_outcome(cli._read_csv, path, header, kind)
    if expected is None:                                  # the message names the file
        want = (None, want[1].replace(str(path), fd_path))
    assert got == want


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_classify_reads_a_quoted_pipe_like_its_file(capsys, data_dir, tmp_path):
    lines = (data_dir / "golden_features.csv").read_text().splitlines()
    first, rest = lines[1].split(",", 1)
    lines[1] = f'"{first}",{rest}'
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("\n".join(lines) + "\n")
    model = str(data_dir / "golden_train.net")
    want = run_cli(capsys, "classify", str(quoted), "--model", model)
    with pipe_of(quoted.read_bytes()) as path:
        got = run_cli(capsys, "classify", path, "--model", model)
    assert got == want
    assert got[0] == 0 and len(got[1].splitlines()) == len(lines)


def test_non_finite_row_keeps_its_data_row_index(tmp_path):
    # the blank line is not a data row: the first non-finite row is row 1
    path, header, kind, _ = write_case(tmp_path, "non-finite rows")
    rows = cli._read_csv(str(path), header, kind)
    with pytest.raises(InsufficientDataError, match=r"^x: data row 1 contains a non-finite"):
        cli._check_finite(rows, "x: data row")


@pytest.mark.parametrize("row,col", [(0, 0), (3, 4), (6, 2)])
def test_check_finite_names_the_first_non_finite_row(row, col):
    rows = np.ones((7, 5))
    rows[row, col] = np.nan
    rows[6, 0] = -np.inf
    with pytest.raises(InsufficientDataError, match=rf"^feature row {row} contains"):
        cli._check_finite(rows, "feature row")
    cli._check_finite(np.ones((0, 5)), "feature row")


@pytest.mark.parametrize("case", ["not utf-8", "gzip data"])
@pytest.mark.parametrize("command", ["features", "classify", "train"])
def test_non_utf8_csv_is_a_parse_error_naming_the_file(capsys, data_dir, tmp_path, case, command):
    path, _, _, _ = write_case(tmp_path, case)
    ecg, gsr, feats = (str(data_dir / n) for n in ("ecg_60s.csv", "gsr_60s.csv",
                                                     "golden_features.csv"))
    args = {
        "features": ("features", ecg, str(path)),
        "classify": ("classify", str(path), "--model", str(data_dir / "golden_train.net")),
        "train": ("train", feats, str(path), "-o", str(tmp_path / "x.net")),
    }[command]
    code, stdout, stderr = run_cli(capsys, *args)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {path}: not a UTF-8 text file\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("case, line", [("huge quoted header cell", 1),
                                        ("huge quoted body cell", 3)])
def test_csv_cell_past_the_field_limit_is_a_parse_error(capsys, data_dir, tmp_path, case, line):
    path, _, _, _ = write_case(tmp_path, case)
    gsr = str(data_dir / "gsr_60s.csv")
    want = (2, "", f"error: line {line}: field larger than field limit (131072)\n")
    assert run_cli(capsys, "features", str(path), gsr) == want
    with pipe_of(path.read_bytes()) as fd_path:
        assert run_cli(capsys, "features", fd_path, gsr) == want


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
        want = read_outcome(scan_csv, path, header, kind)
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


def test_classify_names_a_finite_feature_that_overflows_when_scaled(capsys, data_dir, tmp_path):
    feats = tmp_path / "big.csv"
    feats.write_bytes((data_dir / "golden_features.csv").read_bytes())
    set_feature_cell(feats, 0, 3, "1.7e308")
    code, stdout, stderr = run_cli(
        capsys, "classify", str(feats), "--model", str(data_dir / "golden_train.net"),
    )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        "error: feature row 0: gsrh_uS overflows when scaled by the normalization sidecar\n"
    )


@pytest.mark.parametrize("fixed", [(), ("--fixed",)], ids=["float", "fixed"])
def test_classify_names_a_finite_row_that_overflows_the_first_layer(
    capsys, data_dir, tmp_path, fixed
):
    # +-1.7e308 signed like hidden unit 27's input weights (|w| sum 2.05):
    # its weighted sum overflows, though every value and, without the
    # sidecar, every input is finite
    model = data_dir / "golden_train.net"
    signs = np.sign(nn_core.read_fann(str(model)).weights[0][:-1, 27]).tolist()
    feats = tmp_path / "big.csv"
    feats.write_bytes((data_dir / "golden_features.csv").read_bytes())
    for col, sign in enumerate(signs):
        set_feature_cell(feats, 1, col, f"{sign * 1.7e308!r}")
    code, stdout, stderr = run_cli(
        capsys, "classify", str(feats), "--model", str(model), "--no-norm", *fixed
    )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        f"error: feature row 1 overflows the weighted sum into layer 1 of {model}\n"
    )


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


def csv_test_nets(data_dir):
    """Three float nets whose margins cover the CSV's number forms: net A
    (ordinary margins); net A with output 2 a copy of output 1 plus a 1e-6
    bias, so float margins fall below 1e-4 (exponent form) and quantized
    margins tie at exactly 0; and the hand-made 2-2-1 net with three
    zero-weight inputs, whose one output is printed as the margin and can
    be negative."""
    net_a = load_fann((data_dir / "network_a_random.net").read_text())
    w_tie = net_a.weights[-1].copy()
    w_tie[:, 2] = w_tie[:, 1]
    w_tie[-1, 2] += 1e-6
    w_tie[-1, 0] = -8.0                   # output 0 never leads
    tie = build_mlp(net_a.layer_sizes, weights=[*net_a.weights[:-1], w_tie])
    hand = load_fann((data_dir / "hand_2_2_1.net").read_text())
    w_in = np.vstack((hand.weights[0][:-1], np.zeros((3, 2)), hand.weights[0][-1:]))
    one = build_mlp([5, 2, 1], weights=[w_in, hand.weights[1]])
    return {"net_a": net_a, "tie": tie, "one_output": one}


def test_classify_csv_bytes_match_the_per_row_format(capsys, data_dir, tmp_path):
    """The CSV equals f"{i},{label},{margin:.9g}" per row, byte for byte, on
    the float, --fixed and fixed-file paths, across zero, sub-1e-4 and
    negative margins."""
    xs = np.random.default_rng(43).uniform(-2.0, 2.0, size=(300, 5))
    feats = tmp_path / "rows.csv"
    feats.write_text(
        "rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n"
        + "".join(",".join(repr(float(v)) for v in x) + "\n" for x in xs)
    )
    seen = set()
    for name, net in csv_test_nets(data_dir).items():
        float_path = tmp_path / f"{name}.net"
        float_path.write_text(nn_core.save_fann(net))
        fixed_path = tmp_path / f"{name}_q16.net"
        fixed_path.write_text(nn_core.save_fann(quantize(net)))
        for mode, model, extra in [("float", float_path, ()),
                                   ("fixed", float_path, ("--fixed",)),
                                   ("file", fixed_path, ())]:
            kernel = infer_float if mode == "float" else infer_fixed
            kernel_net = net if mode == "float" else quantize(net)
            want = ["row,label,margin\n"]
            for i, x in enumerate(xs):
                out = kernel(kernel_net, x)
                order = np.sort(out)[::-1]
                margin = float(order[0] - order[1]) if out.size > 1 else float(order[0])
                seen.update({"zero"} if margin == 0 else
                            {"tiny"} if 0 < margin < 1e-4 else
                            {"negative"} if margin < 0 else set())
                want.append(f"{i},{int(np.argmax(out))},{margin:.9g}\n")
            code, stdout, _ = run_cli(capsys, "classify", str(feats), "--model", str(model), *extra)
            assert code == 0
            assert stdout == "".join(want), (name, mode)
    assert seen == {"zero", "tiny", "negative"}


def test_classify_names_the_feature_outside_the_fixed_range(capsys, data_dir, tmp_path):
    """At Q2.30 a normalized golden feature lies past 2.0: the error names
    the file's row and column and prints a plain float."""
    code, stdout, stderr = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "golden_train.net"), "--fixed", "--frac-bits", "30",
    )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        "error: feature row 0: nn50 scales to 2.7760648527308236, outside the "
        "range [-2.0, 1.9999999990686774] of Q2.30\n"
    )
    # unscaled, in the second block
    rows = ["0.1,0.2,0.3,0.4,0.5"] * 300
    rows[261] = "0.1,0.2,0.3,-4.5,0.5"
    feats = tmp_path / "wide.csv"
    feats.write_text("rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n" + "\n".join(rows) + "\n")
    code, stdout, stderr = run_cli(
        capsys, "classify", str(feats), "--model", str(data_dir / "network_a_random.net"),
        "--fixed", "--frac-bits", "29",
    )
    assert code == 3
    assert stdout == ""
    assert stderr == (
        "error: feature row 261: gsrh_uS is -4.5, outside the range "
        "[-4.0, 3.999999998137355] of Q3.29\n"
    )


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


def test_train_no_normalize_removes_a_stale_sidecar(capsys, data_dir, tmp_path):
    """Retraining a model path without normalization must not leave the
    earlier model's sidecar to scale the new model's inputs."""
    feat, lab, _ = write_training_set(tmp_path)
    model = tmp_path / "m.net"
    train = ("train", str(feat), str(lab), "-o", str(model), "--sizes", "5,6,3",
             "--epochs", "50")
    assert run_cli(capsys, *train)[0] == 0
    assert (tmp_path / "m.net.norm.json").exists()
    assert run_cli(capsys, *train, "--no-normalize")[0] == 0
    assert not (tmp_path / "m.net.norm.json").exists()
    classify = ("classify", str(data_dir / "golden_features.csv"), "--model", str(model))
    code, stdout, _ = run_cli(capsys, *classify)
    assert code == 0
    assert stdout == run_cli(capsys, *classify, "--no-norm")[1]


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


def test_quantize_text_names_the_copied_sidecar(capsys, data_dir, tmp_path):
    fixed = tmp_path / "q.net"
    code, stdout, stderr = run_cli(
        capsys, "quantize", str(data_dir / "golden_train.net"), "-o", str(fixed))
    assert (code, stderr) == (0, "")
    assert stdout == (f"quantized to Q16.16 -> {fixed}\nsaturated weights: 0\n"
                      f"normalization sidecar copied to {fixed}.norm.json\n")


def test_quantize_without_a_sidecar_removes_a_stale_one(capsys, data_dir, tmp_path):
    fixed = tmp_path / "q.net"
    stale = tmp_path / "q.net.norm.json"
    stale.write_bytes((data_dir / "golden_train.net.norm.json").read_bytes())
    code, stdout, _ = run_cli(
        capsys, "quantize", str(data_dir / "network_a_random.net"), "-o", str(fixed), "--json",
    )
    assert code == 0
    assert json.loads(stdout)["norm_sidecar"] is None
    assert not stale.exists()
    classify = ("classify", str(data_dir / "golden_features.csv"), "--model", str(fixed))
    code, stdout, _ = run_cli(capsys, *classify)
    assert code == 0
    assert stdout == run_cli(capsys, *classify, "--no-norm")[1]


@pytest.mark.parametrize("text,message", [
    ("{not json", "invalid normalization sidecar: Expecting property name "
                  "enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"mean": [0, 0, 0, 0, 0]}', "invalid normalization sidecar: 'std'"),
    ('{"mean": [0, NaN, 0, 0, 0], "std": [1, 1, 1, 1, 1]}', "normalization sidecar is malformed"),
    ('{"mean": [0, 0, 0, 0, 0], "std": [1, 1, 0, 1, -1]}', "normalization sidecar is malformed"),
], ids=["invalid-json", "no-std", "nan-mean", "non-positive-std"])
def test_quantize_refuses_a_sidecar_classify_would_refuse(capsys, data_dir, tmp_path, text,
                                                          message):
    model = tmp_path / "m.net"
    model.write_bytes((data_dir / "network_a_random.net").read_bytes())
    sidecar = tmp_path / "m.net.norm.json"
    sidecar.write_text(text)
    fixed = tmp_path / "q.net"
    got = run_cli(capsys, "quantize", str(model), "-o", str(fixed))
    assert got == (2, "", f"error: {sidecar}: {message}\n")
    assert not fixed.exists()
    assert not (tmp_path / "q.net.norm.json").exists()


def test_quantize_rewrites_a_hand_written_sidecar_the_way_train_writes_one(capsys, data_dir,
                                                                          tmp_path):
    model = tmp_path / "m.net"
    model.write_bytes((data_dir / "network_a_random.net").read_bytes())
    (tmp_path / "m.net.norm.json").write_text(
        '{"std": [1, 2, 1, 1, 1e0], "mean": [0, 0, 0.5, -0, 3]}')
    fixed = tmp_path / "q.net"
    assert run_cli(capsys, "quantize", str(model), "-o", str(fixed))[0] == 0
    # sorted keys, a 2-space indent and float spellings, as cmd_train writes
    assert (tmp_path / "q.net.norm.json").read_text() == "\n".join([
        "{", '  "mean": [', "    0.0,", "    0.0,", "    0.5,", "    0.0,", "    3.0",
        "  ],", '  "std": [', "    1.0,", "    2.0,", "    1.0,", "    1.0,", "    1.0",
        "  ]", "}", ""])


@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_quantize_rejects_its_input_as_output_before_writing(capsys, data_dir, tmp_path, spelling):
    model = tmp_path / "m.net"
    original = (data_dir / "network_a_random.net").read_bytes()
    model.write_bytes(original)
    sidecar = tmp_path / "m.net.norm.json"
    sidecar.write_text('{"mean": [0, 0, 0, 0, 0], "std": [1, 1, 1, 1, 1]}\n')
    output = {"same": model, "dotted": tmp_path / "." / "m.net",
              "symlink": tmp_path / "link.net"}[spelling]
    if spelling == "symlink":
        output.symlink_to(model)
    code, stdout, stderr = run_cli(capsys, "quantize", str(model), "-o", str(output))
    assert code == 5
    assert stdout == ""
    assert stderr == f"error: output {output} is the input model\n"
    assert model.read_bytes() == original
    assert sidecar.exists()


@pytest.mark.parametrize("argv,flag", [
    (("quantize", "{net}", "--frac-bits", "31"), "--frac-bits"),
    (("quantize", "{net}", "--frac-bits", "0"), "--frac-bits"),
    (("classify", "{feats}", "--model", "{net}", "--fixed", "--frac-bits", "0"), "--frac-bits"),
    (("classify", "{feats}", "--model", "{net}", "--fixed", "--frac-bits", "31"), "--frac-bits"),
    # nn_core.build_mlp and nn_core.train state these rules, in their own words
    (("train", "{feats}", "{labels}", "--epochs", "-3"), "epochs must not be negative, got -3"),
    (("train", "{feats}", "{labels}", "--learning-rate", "nan"), "learning_rate must be finite"),
    (("train", "{feats}", "{labels}", "--learning-rate", "inf"), "learning_rate must be finite"),
    (("train", "{feats}", "{labels}", "--learning-rate=-inf"), "learning_rate must be finite"),
    (("train", "{feats}", "{labels}", "--seed", "-1"), "seed must not be negative, got -1"),
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


@pytest.mark.parametrize("text,code,message", [
    ("{not json", 2, "{sidecar}: invalid normalization sidecar: Expecting property name "
                     "enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"mean": [0, 0, 0, 0], "std": [1, 1, 1, 1]}', 4,
     "normalization sidecar length does not match features"),
], ids=["invalid-json", "wrong-length"])
def test_classify_rejects_a_sidecar_it_cannot_use(capsys, data_dir, tmp_path, text, code, message):
    sidecar = tmp_path / "norm.json"
    sidecar.write_text(text)
    got = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_random.net"), "--norm-file", str(sidecar),
    )
    assert got == (code, "", f"error: {message.format(sidecar=sidecar)}\n")


def test_classify_norm_file_with_no_norm_is_a_config_error(capsys, data_dir, tmp_path):
    # the missing sidecar is never opened: the flags are checked first
    got = run_cli(
        capsys, "classify", str(data_dir / "golden_features.csv"),
        "--model", str(data_dir / "network_a_random.net"),
        "--norm-file", str(tmp_path / "missing.json"), "--no-norm",
    )
    assert got == (5, "", "error: --norm-file cannot be combined with --no-norm\n")


@pytest.mark.parametrize("sizes,code,message", [
    ("5", 5, "--sizes: a network needs at least an input and an output layer"),
    ("4,3", 4, "network takes 4 inputs, features have 5 columns"),
])
def test_train_rejects_sizes_that_do_not_fit(capsys, tmp_path, sizes, code, message):
    feats, labels, _ = write_training_set(tmp_path)
    out = tmp_path / "m.net"
    got = run_cli(capsys, "train", str(feats), str(labels), "-o", str(out), "--sizes", sizes)
    assert got == (code, "", f"error: {message}\n")
    assert not out.exists()


def test_train_rejects_a_header_only_feature_file(capsys, tmp_path):
    feats, labels = tmp_path / "f.csv", tmp_path / "l.csv"
    feats.write_text("rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s\n")
    labels.write_text("label\n")
    got = run_cli(capsys, "train", str(feats), str(labels), "-o", str(tmp_path / "m.net"))
    assert got == (3, "", "error: training set is empty\n")


@pytest.mark.parametrize("command,header", [
    ("classify", "rmssd_ms,sdsd_ms,nn50,gsrh_uS,gsrl_s"),
    ("train", "label"),
    ("features", "time_s,ecg"),
])
def test_an_empty_csv_is_a_header_error_at_line_1(capsys, data_dir, tmp_path, command, header):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    feats = str(data_dir / "golden_features.csv")
    args = {
        "classify": ("classify", str(empty), "--model", str(data_dir / "network_a_random.net")),
        "train": ("train", feats, str(empty), "-o", str(tmp_path / "m.net")),
        "features": ("features", str(empty), str(empty)),
    }[command]
    got = run_cli(capsys, *args)
    assert got == (2, "", f"error: line 1: expected header {header!r}, got ''\n")
    assert not (tmp_path / "m.net").exists()


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
    code, stdout, _ = run_cli(capsys, "report", "--csv")
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


def test_report_csv_with_json_is_a_config_error(capsys):
    got = run_cli(capsys, "report", "--csv", "--json")
    assert got == (5, "", "error: --csv cannot be combined with --json\n")


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
    code, stdout, _ = run_cli(capsys, "report")
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
    assert stderr == ("error: unknown platform 'z80'; choose from "
                      "['cortex_m4', 'ibex', 'ri5cy_multi8', 'ri5cy_single']\n")


@pytest.mark.parametrize("command", ["report", "budget"])
def test_unknown_platform_lists_the_tables_platforms(capsys, tmp_path, command):
    assert run_cli(capsys, command, "--platform", "nope") == (
        5, "", "error: unknown platform 'nope'; choose from "
               "['cortex_m4', 'ibex', 'ri5cy_multi8', 'ri5cy_single']\n")
    doc = calibration_doc()
    del doc["platforms"]["ibex"]
    path = tmp_path / "cal.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(capsys, command, "--platform", "ibex", "--calibration", str(path)) == (
        5, "", "error: unknown platform 'ibex'; choose from "
               "['cortex_m4', 'ri5cy_multi8', 'ri5cy_single']\n")


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
    code, stdout, stderr = run_cli(capsys, "report", "--calibration", str(path))
    assert code == 5
    assert stdout == ""
    assert named in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("command", ["report", "budget"])
@pytest.mark.parametrize("breaks, message", [
    (lambda doc: CALIBRATION_FAULTS["inconsistent-power"][0](doc["platforms"]),
     "platform 'ibex': A/B power disagreement 6.29% exceeds 3%"),
    (lambda doc: doc.update(networks={"A": {"weights": 3003}, "B": {"weights": 3003}}),
     "the two reference networks need distinct weight counts"),
    (lambda doc: doc["platforms"].clear(), "a calibration table needs at least one platform"),
], ids=["inconsistent-power", "equal-weights", "no-platform"])
def test_a_calibration_files_rule_errors_name_the_file(capsys, tmp_path, command, breaks,
                                                         message):
    doc = calibration_doc()
    breaks(doc)
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert run_cli(capsys, command, "--calibration", str(path)) == (
        5, "", f"error: {path}: {message}\n")


def test_report_rejects_a_calibration_platform_that_is_not_a_mapping(capsys, tmp_path):
    path = tmp_path / "calib.yaml"
    path.write_text("platforms:\n  ibex: 5\n")
    got = run_cli(capsys, "report", "--calibration", str(path))
    assert got == (5, "", f"error: {path}: platform 'ibex' must be a mapping\n")


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


def test_budget_spells_a_custom_tables_detection_energy_exactly(capsys, tmp_path):
    doc = calibration_doc()
    # 4.3 uJ summed in uJ gave 0.0006052999999999999 J; B keeps the power rule
    doc["platforms"]["ri5cy_multi8"]["energy_uj"] = {"A": 4.3, "B": 77.4}
    path = tmp_path / "calib.yaml"
    path.write_text(yaml.safe_dump(doc))
    code, stdout, _ = run_cli(capsys, "budget", "--calibration", str(path), "--json")
    assert code == 0
    assert '"detection_energy_j": 0.0006053,' in stdout


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
    # summed in nanojoules, the intake is spelled exactly
    assert '"daily_intake_j": 21.4272,' in stdout


def test_budget_refuses_a_day_of_fractional_seconds_with_and_without_days(capsys):
    # 6.0001 h is 21600.36 s: the 24 h total holds, the whole seconds do not
    refused = [run_cli(capsys, "budget", "--solar-hours", "6.0001", *days)
               for days in ([], ["--days", "1"])]
    assert refused[0] == refused[1] == (
        5, "", "error: segment duration 21600.36 s is not a whole second\n")
    # 1e-10 h is 3.6e-07 s: within 1e-6 of a whole second, but that second is 0
    refused = [run_cli(capsys, "budget", "--solar-hours", "1e-10", *days)
               for days in ([], ["--days", "1"])]
    assert refused[0] == refused[1] == (
        5, "", "error: segment duration 3.6e-07 s is not a whole second\n")


def test_budget_outdoor_scenario(capsys):
    code, stdout, _ = run_cli(
        capsys, "budget", "--scenario", "outdoor-1h", "--platform", "cortex_m4", "--json"
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["daily_intake_j"] == pytest.approx(88.9596, abs=1e-9)
    assert doc["detection_energy_j"] == pytest.approx(606.1e-6, rel=1e-9)
    # summed in uJ, the detection energy is spelled exactly
    assert '"detection_energy_j": 0.0006061,' in stdout


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
    1: "1e-09",                        # exponent: the f-string spells the row
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
    9999999999995: "9999.99999999",    # tie, the double lies below it
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
    # a charge below 1e-4 J and a tie next to 5 integer digits, each among
    # otherwise plain values
    odd = [20000, 9999999999995]
    for n in (crafted, fast, fast[:0], *(np.append(fast, v) for v in odd)):
        assert cli._soc_lines(start, n) == soc_lines_reference(start, n)
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = rng.integers(0, 1.6e12, 20000, endpoint=True)
        assert cli._soc_lines(start, n) == soc_lines_reference(start, n)


def fast_soc_lines(monkeypatch, start, n, out=None):
    """``cli._soc_lines(start, n, out)``, failing unless it took the digit tables."""
    calls = []
    tables = cli._digit_tables

    def spy():
        calls.append(1)
        return tables()

    monkeypatch.setattr(cli, "_digit_tables", spy)
    lines = cli._soc_lines(start, n, out)
    assert calls, "the chunk fell back to the f-string"
    return lines


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


def test_soc_lines_reuse_one_work_buffer_without_stale_bytes(monkeypatch):
    # one buffer spells, in order, a full chunk from 1000 J with ties, a
    # shorter chunk below 1000 J, and a full chunk of whole joules: every
    # byte a chunk returns is its own, none left over from the one before
    size = 4096
    work = cli._SocWork(size)
    rng = np.random.default_rng(20)
    above = rng.integers(10**12, 1.6e12, size) // 10 * 10 + 5
    above[::2] += rng.integers(-4, 5, size // 2)
    below = rng.integers(10**5, 10**12, 1000)
    whole = rng.integers(1, 1000, size) * 10**9
    for start, n in ((0, above), (9500, below), (10**8 - size, whole)):
        got = fast_soc_lines(monkeypatch, start, n, work)
        assert got == soc_lines_reference(start, n)
    assert (above % 10 == 5).any() and (below < 10**12).all()
    assert b"." not in got


def test_soc_lines_spell_a_brownout_ramp_with_one_exponent_row(monkeypatch):
    # a ramp down to empty and back: one charge below 1e-4 J gets its own
    # f-string row in the chunk the tables spell
    n = np.concatenate([np.arange(5 * 10**9, -1, -10**7 - 3), np.zeros(100, np.int64),
                        np.arange(37, 10**9, 10**7 + 11)])
    assert ((n > 0) & (n < 10**5)).sum() == 1
    lines = fast_soc_lines(monkeypatch, 1234, n)
    assert lines == soc_lines_reference(1234, n)
    assert b",3.7e-08\n" in lines


def test_soc_lines_spell_every_digit_count_up_to_int64(monkeypatch):
    # from 10^4 J to 2^63 - 1 nJ: at each count D of integer digits, a charge
    # on the half unit 5 * 10^(D-4) nJ, the carry into D + 1 digits, the
    # doubles that round a near-tie the other way, and random charges
    ties = [10 ** (d + 8) + k * 10 ** (d - 3) + 5 * 10 ** (d - 4)
            for d in range(4, 11) for k in (0, 1, 7 * 10**9 // 10 ** (d - 3))]
    carries = [10 ** (d + 9) - 5 * 10 ** (d - 4) for d in range(4, 10)]
    near = [9264622284805001, 9746990441644999, 61067335750250002, 40510193714449996,
            700779915718499946, 164878984298499995, 6644859967544999806,
            6792523486985000279]
    n = np.array(sorted(ties + carries + near + [2**63 - 1]), dtype=np.int64)
    rng = np.random.default_rng(63)
    wide = rng.integers(10**13, 2**63 - 1, 2000, endpoint=True)
    for chunk in (n, wide, np.concatenate([n, wide, n[::-1]])):
        assert fast_soc_lines(monkeypatch, 0, chunk) == soc_lines_reference(0, chunk)
    # the near-ties are where the double, not the exact charge, decides
    exact = [(v + 5 * 10 ** (d - 4)) // 10 ** (d - 3)
             for v in near for d in [len(str(v // 10**9))]]
    spelled = [int(f"{v / 1e9:.{12 - len(str(v // 10**9))}f}".replace(".", "")) for v in near]
    assert exact != spelled


@pytest.mark.parametrize("start", [10**8 - 10, 2**32 - 10, 10**12 - 10])
def test_soc_lines_spell_indices_of_any_length(monkeypatch, start):
    rng = np.random.default_rng(start % 1000)
    n = rng.integers(0, 2 * 10**12, 65536)
    work = cli._SocWork(n.size)
    got = fast_soc_lines(monkeypatch, start, n, work)
    assert got == soc_lines_reference(start, n)
    assert got.startswith(f"{start},".encode()) and f"\n{start + 10}," in got.decode()


def test_soc_lines_match_the_f_string_on_random_chunks(monkeypatch):
    # charges of 0 to 19 digits in nJ with planted ties and near-ties, below
    # 1e-4 J and at 2^63 - 1, numbered from both sides of each group
    # boundary, through a fresh and a reused work buffer
    rng = np.random.default_rng(2024)
    work = cli._SocWork(300)
    starts = [0, 9990, 10**8 - 20, 2**32 - 100, 10**11, 10**12 - 10]
    for _ in range(300):
        m = int(rng.integers(1, 300))
        top = np.minimum(10.0 ** rng.integers(1, 20, m), 2.0**63 - 1024)
        n = (rng.random(m) * top).astype(np.int64)
        for j in rng.integers(0, m, m // 4):
            d = int(rng.integers(4, 11))
            unit = 10 ** (d - 3)
            whole = int(rng.integers(10 ** (d + 8) // unit, min(10 ** (d + 9), 2**63) // unit))
            n[j] = whole * unit + unit // 2 + (int(rng.integers(-3000, 3001)) if d > 6 else 0)
        n[rng.integers(0, m, 2)] = rng.choice([1, 99999, 2**63 - 1], 2)
        start = int(rng.choice(starts)) + int(rng.integers(0, 30))
        want = soc_lines_reference(start, n)
        assert fast_soc_lines(monkeypatch, start, n) == want
        assert fast_soc_lines(monkeypatch, start, n, work) == want


def traced_peak(call):
    """The peak of traced Python and numpy allocations while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_budget_soc_out_memory_does_not_grow_with_days(capsys, tmp_path):
    soc = tmp_path / "soc.csv"

    def budget(days):
        code, _, _ = run_cli(capsys, "budget", "--days", str(days), "--start-charge", "0.6",
                             "--soc-out", str(soc), "--json")
        assert code == 0

    budget(1)  # the digit tables and the parser are built once per process
    peaks = {days: traced_peak(lambda: budget(days)) for days in (2, 12)}
    assert soc.stat().st_size > 12 * 86400 * 15
    assert abs(peaks[12] - peaks[2]) < 2**20, peaks


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
        (("--start-charge", "1", "--battery-mah", "6.9e8"), "just below 2^63 nJ"),
    ],
    ids=["above-1000J", "spill", "brownout", "just-below-2^63-nJ"],
)
def test_budget_soc_csv_matches_the_f_string_in_every_regime(
    capsys, tmp_path, monkeypatch, chunk, flags, regime
):
    monkeypatch.setattr(cli, "SOC_OUT_CHUNK_LINES", chunk)
    sims = []
    real = hs.simulate_soc
    monkeypatch.setattr(hs, "simulate_soc", lambda *a, **k: sims.append(real(*a, **k)) or sims[-1])
    soc = tmp_path / "soc.csv"
    code, _, _ = run_cli(capsys, "budget", "--days", "1", *flags, "--soc-out", str(soc))
    assert code == 0
    (sim,) = sims
    n = hs.charge_series_nj(sim)
    series = n / 1e9
    # 9.19e9 J: every line's whole joules pass 2^32, so they are spelled in int64
    reached = {"above 1000 J": series.min() > 1000, "spill": sim.spilled_j > 0,
               "brownout": series.min() == 0,
               "just below 2^63 nJ": 2**32 * 10**9 <= n.min() <= n.max() < 2**63}
    assert reached[regime]
    assert soc.read_bytes() == b"t_s,charge_j\n" + soc_lines_reference(0, n)


def test_budget_rejects_a_capacity_beyond_int64_nanojoules(capsys, tmp_path):
    # 1e9 mAh at 3.7 V is 1.3e10 J, 1.3e19 nJ: past int64, so the battery is
    # refused before the simulation, with --soc-out or --json or neither
    soc = tmp_path / "soc.csv"
    args = ("budget", "--days", "1", "--battery-mah", "1e9")
    error = "error: battery capacity must be positive, finite and below 2^63 nJ (about 9.22e9 J)\n"
    for extra in ((), ("--json",), ("--soc-out", str(soc)), ("--soc-out", str(soc), "--json")):
        assert run_cli(capsys, *args, *extra) == (5, "", error)
    assert not soc.exists()
    # an existing file keeps its bytes
    soc.write_bytes(b"t_s,charge_j\n0,1\n" * 1000)
    assert run_cli(capsys, *args, "--soc-out", str(soc)) == (5, "", error)
    assert soc.read_bytes() == b"t_s,charge_j\n0,1\n" * 1000


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


def test_budget_soc_out_never_expands_every_day(capsys, tmp_path, monkeypatch):
    soc = tmp_path / "soc.csv"
    args = ("budget", "--days", "3", "--start-charge", "0.6", "--soc-out", str(soc))
    report = run_cli(capsys, *args)
    assert report[0] == 0
    want = soc.read_bytes()
    soc.unlink()

    def expand(sim):
        raise AssertionError("SocSimResult.segments read")

    monkeypatch.setattr(hs.SocSimResult, "segments", property(expand))
    assert run_cli(capsys, *args) == report
    assert soc.read_bytes() == want


def test_budget_soc_out_in_memory_flat_in_days(capsys):
    # /dev/full refuses the first write (exit 2), so the peak covers the
    # simulation and one chunk, but no writing after it; expanding every
    # day's records took tens of MB
    args = ("budget", "--days", "100000", "--soc-out", "/dev/full")
    assert run_cli(capsys, "budget", "--days", "1", "--soc-out", os.devnull)[0] == 0
    codes = []
    peak = traced_peak(lambda: codes.append(run_cli(capsys, *args)[0]))
    assert codes == [2]
    assert peak < 4 * 2**20, peak


# every kind of output written through nn_core._open_output: the arguments
# that write it to a path, and the file written there
REWRITTEN = {
    "budget --soc-out": lambda d, out: (
        ("budget", "--days", "1", "--start-charge", "0.5", "--soc-out", out), out),
    "features -o": lambda d, out: (
        ("features", str(d / "ecg_60s.csv"), str(d / "gsr_60s.csv"), "-o", out), out),
    "features --json -o": lambda d, out: (
        ("features", str(d / "ecg_60s.csv"), str(d / "gsr_60s.csv"), "--json", "-o", out),
        out),
    "train -o": lambda d, out: (
        ("train", *map(str, write_training_set(Path(out).parent)[:2]), "-o", out,
         "--epochs", "5"), out),
    "train sidecar": lambda d, out: (
        ("train", *map(str, write_training_set(Path(out).parent)[:2]), "-o", out,
         "--epochs", "5"), out + ".norm.json"),
    "quantize -o": lambda d, out: (("quantize", str(d / "golden_train.net"), "-o", out), out),
    "quantize sidecar": lambda d, out: (
        ("quantize", str(d / "golden_train.net"), "-o", out), out + ".norm.json"),
}


def rewritten(capsys, data_dir, case, out):
    """Run ``case`` with output path ``out``; the written file's bytes."""
    args, written = REWRITTEN[case](data_dir, str(out))
    assert run_cli(capsys, *args)[0] == 0
    with open(written, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("case", REWRITTEN)
def test_a_rerun_leaves_exactly_the_new_bytes(capsys, data_dir, tmp_path, case):
    # an existing file is written over in place, then cut at the last byte
    # written: longer, shorter, equally long or empty, it ends as a fresh file
    want = rewritten(capsys, data_dir, case, tmp_path / "fresh")
    out = tmp_path / "out"
    _, written = REWRITTEN[case](data_dir, str(out))
    for old in (want + b"9,0.5\n" * 5000, want[: len(want) // 2], want[::-1], b""):
        with open(written, "wb") as fh:
            fh.write(old)
        assert rewritten(capsys, data_dir, case, out) == want


@pytest.mark.parametrize("case", REWRITTEN)
def test_a_write_only_file_is_rewritten(capsys, data_dir, tmp_path, case):
    # the file is opened write-only, as "wb" opened it, and keeps its mode
    want = rewritten(capsys, data_dir, case, tmp_path / "fresh")
    out = tmp_path / "out"
    _, written = REWRITTEN[case](data_dir, str(out))
    with open(written, "wb") as fh:
        fh.write(want * 2)
    os.chmod(written, 0o200)
    assert rewritten(capsys, data_dir, case, out) == want
    assert os.stat(written).st_mode & 0o777 == 0o200


def test_dev_null_takes_soc_out_and_o(capsys, data_dir):
    # a device is written but not cut: ftruncate on it fails
    code, stdout, stderr = run_cli(capsys, "budget", "--days", "1", "--soc-out", os.devnull,
                                   "--json")
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["simulation"]["days"] == 1
    assert run_cli(capsys, "features", str(data_dir / "ecg_60s.csv"),
                   str(data_dir / "gsr_60s.csv"), "-o", os.devnull) == (0, "", "")


def test_a_failed_soc_out_leaves_only_the_bytes_written_before_it(capsys, tmp_path, monkeypatch):
    soc = tmp_path / "soc.csv"
    args = ("budget", "--days", "1", "--start-charge", "0.5", "--soc-out", str(soc))
    assert run_cli(capsys, *args)[0] == 0
    chunks = []
    real = cli._soc_lines

    def fail_third(*a):
        if len(chunks) == 2:
            raise OSError(28, "No space left on device")
        chunks.append(real(*a))
        return chunks[-1]

    monkeypatch.setattr(cli, "_soc_lines", fail_third)
    # the error maps to exit 2 as an open file's write error always did; the
    # file is cut after the second chunk, not left with the old run's tail
    assert run_cli(capsys, *args) == (2, "", "error: [Errno 28] No space left on device\n")
    assert soc.read_bytes() == b"t_s,charge_j\n" + b"".join(chunks)


def test_budget_start_charge_validation(capsys):
    code, _, stderr = run_cli(
        capsys, "budget", "--days", "1", "--start-charge", "1.5"
    )
    assert code == 5
    assert "--start-charge" in stderr
    # checked before the battery is built, so it is named even when the
    # capacity is bad too
    code, _, stderr = run_cli(capsys, "budget", "--days", "1", "--battery-mah", "0",
                              "--start-charge", "2")
    assert code == 5
    assert stderr == "error: --start-charge must lie in [0, 1]\n"


@pytest.mark.parametrize(
    "flag,value",
    [("--rate", "30"), ("--start-charge", "0.5"), ("--soc-out", "soc.csv"),
     ("--battery-mah", "1"), ("--battery-volts", "3")],
)
def test_budget_simulation_flags_without_days_are_config_errors(
    capsys, tmp_path, monkeypatch, flag, value
):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, "budget", flag, value)
    assert code == 5
    assert stdout == ""
    assert stderr == f"error: {flag} needs --days\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,value,quantity",
    [("--rate", "nan", "rate"), ("--rate", "inf", "rate"),
     ("--battery-volts", "inf", "battery capacity"),
     # finite flags whose nanojoules, or the run's whole demand in them, are not
     ("--rate", "1e300", "total demand"), ("--rate", "1e306", "detection load"),
     ("--battery-mah", "1e300", "battery capacity")],
)
def test_budget_non_finite_arguments_are_config_errors(capsys, flag, value, quantity):
    code, stdout, stderr = run_cli(capsys, "budget", "--days", "1", flag, value)
    assert code == 5
    assert stdout == ""
    assert stderr.startswith(f"error: {quantity}") and "finite" in stderr


@pytest.mark.parametrize("value", ["abc", "[1]", "true"])
def test_budget_scenario_file_with_a_non_numeric_duration(capsys, tmp_path, value):
    path = tmp_path / "bad.yaml"
    path.write_text(f"segments:\n  - duration_s: {value}\n")
    code, stdout, stderr = run_cli(capsys, "budget", "--scenario-file", str(path))
    assert code == 5
    assert stdout == ""
    assert f"{path}: segment 0 duration_s must be a number" in stderr


@pytest.mark.parametrize("value", ["5", "false", "0", "''", "{}"])
def test_budget_scenario_file_with_non_list_sources(capsys, tmp_path, value):
    path = tmp_path / "bad.yaml"
    path.write_text(f"segments:\n  - duration_h: 24\n    sources: {value}\n")
    code, stdout, stderr = run_cli(capsys, "budget", "--scenario-file", str(path))
    assert code == 5
    assert stdout == ""
    assert stderr == f"error: {path}: segment 0 sources must be a list\n"


def test_budget_scenario_file_names_itself_in_a_rule_it_breaks(capsys, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("segments:\n  - duration_h: 24\n"
                    "    sources: [{kind: teg, condition: sauna}]\n")
    code, stdout, stderr = run_cli(capsys, "budget", "--scenario-file", str(path))
    assert code == 5
    assert stdout == ""
    assert stderr == (f"error: {path}: unknown teg condition 'sauna'; "
                      "choose from ['cool-room', 'cool-room-wind', 'warm-room']\n")


def test_budget_scenario_file_with_hours(capsys, tmp_path):
    path = tmp_path / "teg.yaml"
    path.write_text("segments:\n  - duration_h: 24\n")
    code, stdout, stderr = run_cli(capsys, "budget", "--scenario-file", str(path),
                                   "--teg-hours", "12")
    assert code == 5
    assert stdout == ""
    assert stderr == "error: --teg-hours/--solar-hours apply to built-in scenarios only\n"


@pytest.mark.parametrize("flag", ["--scenario-file", "--calibration"])
def test_budget_input_file_that_is_not_utf8(capsys, tmp_path, flag):
    path = tmp_path / "bad.yaml"
    if flag == "--scenario-file":
        path.write_bytes(b"# caf\xff\nsegments:\n  - duration_h: 24\n")
    else:
        path.write_bytes(b"# caf\xff\n" + yaml.safe_dump(calibration_doc()).encode())
    code, stdout, stderr = run_cli(capsys, "budget", flag, str(path))
    assert code == 5
    assert stdout == ""
    assert stderr.startswith(f"error: {path}: ") and "utf-8" in stderr


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


@pytest.mark.parametrize("name", ["outdoor-1h", "indoor-day"])
def test_budget_scenario_with_a_scenario_file(capsys, tmp_path, name):
    path = tmp_path / "teg.yaml"
    path.write_text("segments:\n  - duration_h: 24\n")
    code, stdout, stderr = run_cli(
        capsys, "budget", "--scenario", name, "--scenario-file", str(path), "--json"
    )
    assert code == 5
    assert stdout == ""
    assert stderr == "error: --scenario cannot be combined with --scenario-file\n"


def test_budget_builds_the_calibration_table_once(capsys, monkeypatch):
    assert run_cli(capsys, "budget", "--days", "2", "--json")[0] == 0
    built = []
    check = perf_model.CalibrationTable.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(perf_model.CalibrationTable, "__post_init__", counted)
    for _ in range(2):
        assert run_cli(capsys, "budget", "--days", "2", "--json")[0] == 0
    assert built == []
    # the wrapper does see a table being built
    dataclasses.replace(builtin_calibration())
    assert len(built) == 1


def test_budget_hours_do_not_outlive_their_call(capsys):
    code, short, _ = run_cli(
        capsys, "budget", "--solar-hours", "3", "--teg-hours", "12", "--json"
    )
    assert code == 0
    code, stock, _ = run_cli(capsys, "budget", "--json")
    assert code == 0
    assert json.loads(short)["daily_intake_j"] != json.loads(stock)["daily_intake_j"]
    assert json.loads(stock)["daily_intake_j"] == pytest.approx(21.5136, abs=1e-9)


@pytest.mark.parametrize("given,spelled", [
    (("--solar-hours", "3"), ("--solar-hours", "3", "--teg-hours", "24")),
    (("--teg-hours", "12"), ("--solar-hours", "6", "--teg-hours", "12")),
])
def test_budget_one_hour_flag_keeps_the_other_default(capsys, given, spelled):
    assert run_cli(capsys, "budget", *given, "--json") == \
        run_cli(capsys, "budget", *spelled, "--json")


@pytest.mark.parametrize("days", [[], ["--days", "3"]])
def test_budget_default_hours_are_the_stock_indoor_day(capsys, days):
    _, stock, _ = run_cli(capsys, "budget", *days, "--json")
    _, spelled, _ = run_cli(
        capsys, "budget", "--solar-hours", "6", "--teg-hours", "24", *days, "--json"
    )
    assert spelled == stock

def test_budget_text_mode(capsys):
    code, stdout, _ = run_cli(capsys, "budget")
    assert code == 0
    assert "daily intake:      21.5136 J" in stdout
    assert "35725 detections/day" in stdout


@pytest.mark.parametrize("hours, line, bound", [
    ((), "binding bound:     acquisition (20/min: one 3 s acquisition per detection)",
     "acquisition"),
    (("--solar-hours", "1", "--teg-hours", "1"), "binding bound:     energy", "energy"),
], ids=["stock-acquisition", "short-day-energy"])
def test_budget_names_the_binding_bound(capsys, hours, line, bound):
    # one disjoint 3 s acquisition per detection allows at most 20/min
    code, stdout, _ = run_cli(capsys, "budget", *hours)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[lines.index(line) - 1].startswith("sustainable rate:  ")
    code, stdout, _ = run_cli(capsys, "budget", *hours, "--json")
    doc = json.loads(stdout)
    assert (doc["acquisition_limit_per_minute"], doc["binding_bound"]) == (20.0, bound)
    assert (doc["max_detections_per_minute"] > 20) == (bound == "acquisition")


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


FOOTPRINT_2000_2000 = """{
  "layer_bytes": 16,
  "layer_sizes": [
    2000,
    2000
  ],
  "layers": 2,
  "neuron_bytes": 64000,
  "neurons": 4000,
  "total_bytes": 16072016,
  "weight_bytes": 16008000,
  "weights": 4002000
}
"""


def test_footprint_sizes_counts_without_building_the_weights(capsys):
    # 4 M weights would take 32 MB as float64; the counts need none of them
    run_cli(capsys, "footprint", "--sizes", "1,1", "--json")
    peak = traced_peak(lambda: cli_main(["footprint", "--sizes", "2000,2000", "--json"]))
    assert capsys.readouterr().out == FOOTPRINT_2000_2000
    assert peak < 2**20


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


# ---------------------------------------------------------------------------
# one parser per process

def test_main_carries_no_state_from_one_call_to_the_next(capsys, data_dir):
    features = str(data_dir / "golden_features.csv")
    model = str(data_dir / "network_a_random.net")
    code, _, stderr = run_cli(capsys, "classify", features, "--model", model, "--fixed")
    assert code == 0 and "discrepancy" in stderr
    code, stdout, stderr = run_cli(capsys, "classify", features, "--model", model)
    assert code == 0 and stderr == ""
    assert stdout == (data_dir / "golden_labels.csv").read_text()

    plain = run_cli(capsys, "budget", "--days", "1", "--json")
    at_rate = run_cli(capsys, "budget", "--days", "1", "--rate", "3", "--json")
    assert at_rate != plain
    assert run_cli(capsys, "budget", "--days", "1", "--json") == plain


def test_main_runs_a_command_rebound_after_the_first_call(capsys, monkeypatch):
    assert run_cli(capsys, "footprint", "--network", "A")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_footprint", lambda args: seen.append(args.network) or 7)
    assert run_cli(capsys, "footprint", "--network", "B")[0] == 7
    assert seen == ["B"]
