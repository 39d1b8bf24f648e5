"""Regenerate the checked-in golden fixtures under tests/data/.

Usage: python tools/gen_golden.py [OUT_DIR]   (default: tests/data)

Everything here is deterministic, so reruns reproduce the committed files
byte for byte (tests/test_golden.py checks that):

* network_a_random.net   - randomly initialized 5-50-50-3 network
* network_a_q16.net      - the same network quantized to Q16.16
* hand_2_2_1.net         - tiny hand-written network for hand arithmetic
* ecg_60s.csv            - synthetic 60 s ECG at 256 Hz (time_s,ecg)
* gsr_60s.csv            - synthetic 60 s GSR at 32 Hz (time_s,gsr_uS)
* golden_features.csv    - features subcommand output for the two recordings
* golden_features.json   - the same windows from features --json
* golden_labels.csv      - expected classify output, computed by an
                           independent pure-Python forward pass over the
                           *serialized* model and feature text
* golden_train.net       - train with the CLI defaults (5-50-50-3, 500
                           epochs, learning rate 0.1, seed 0) on the 36-row
                           set of tests/test_cli.py's write_training_set
* golden_train.net.norm.json - its normalization sidecar
* golden_train.json      - its train --json stdout, run from the output directory

The label oracle parses the .net file itself and loops over scalars with
math.tanh, sharing no code with the package's inference path. The chosen
weight seed is the first one whose smallest decision margin clears
MIN_MARGIN, so fixed-point rounding can never flip a golden label.
"""

import contextlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from stresswatch import build_network_a, quantize, write_fann  # noqa: E402
from stresswatch.cli import main as cli_main  # noqa: E402
from stresswatch.quantizer import QFormat, infer_fixed  # noqa: E402
from test_cli import write_training_set  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
MIN_MARGIN = 0.05

HAND_NET = """\
SWNET_FLO_1
num_layers=3
layer_sizes=2 2 1
0.5 -0.25
0.75 1
0.1 -0.2
1.5
-0.5
0.05
"""


def synth_ecg(duration_s=60.0, fs=256.0):
    """Gaussian R-spikes on a slow baseline; beat spacing cycles through a
    pattern whose successive differences stay well clear of the 50 ms
    NN50 boundary (detection jitter at 256 Hz is under 4 ms)."""
    t = np.arange(int(duration_s * fs)) / fs
    pattern = [0.800, 0.835, 0.755, 0.875, 0.795, 0.915, 0.695]
    beats = []
    tk, i = 0.5, 0
    while tk < duration_s - 0.4:
        beats.append(tk)
        tk += pattern[i % len(pattern)]
        i += 1
    x = 0.05 * np.sin(2 * np.pi * 0.25 * t)
    for b in beats:
        x += np.exp(-0.5 * ((t - b) / 0.008) ** 2)
    return t, x


def synth_gsr(duration_s=60.0, fs=32.0):
    """Smooth conductance rises on a gently falling baseline; between
    events the trace strictly falls, so the rising runs are exactly the
    four responses."""
    t = np.arange(int(duration_s * fs)) / fs
    x = 2.0 - 0.004 * t
    events = [(5.0, 0.5, 2.0), (20.0, 0.8, 3.0), (35.0, 0.3, 1.5), (50.0, 0.6, 2.5)]
    for t0, height, rise_s in events:
        u = np.clip((t - t0) / rise_s, 0.0, 1.0)
        x += height * (3 * u**2 - 2 * u**3)
    return t, x


def write_csv(path, header, t, x):
    lines = [header]
    for ti, xi in zip(t, x):
        lines.append(f"{ti:.10g},{xi:.10g}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def parse_net_file(path):
    """Minimal independent reader: header, then (size+1) x next matrices."""
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "SWNET_FLO_1"
    sizes = [int(s) for s in lines[2].split("=")[1].split()]
    tokens = " ".join(lines[3:]).split()
    mats, pos = [], 0
    for a, b in zip(sizes, sizes[1:]):
        rows = []
        for _ in range(a + 1):
            rows.append([float(v) for v in tokens[pos:pos + b]])
            pos += b
        mats.append(rows)
    assert pos == len(tokens)
    return sizes, mats


def oracle_forward(mats, x):
    """Scalar-loop forward pass, tanh on every non-input layer."""
    act = list(x)
    for mat in mats:
        n_out = len(mat[0])
        nxt = []
        for j in range(n_out):
            s = mat[-1][j]  # bias row
            for i, a in enumerate(act):
                s += a * mat[i][j]
            nxt.append(math.tanh(s))
        act = nxt
    return act


def parse_features_csv(path):
    lines = path.read_text(encoding="ascii").splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def main(out_dir=DATA):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t, x = synth_ecg()
    write_csv(out_dir / "ecg_60s.csv", "time_s,ecg", t, x)
    t, x = synth_gsr()
    write_csv(out_dir / "gsr_60s.csv", "time_s,gsr_uS", t, x)
    print("wrote ecg_60s.csv, gsr_60s.csv")

    rc = cli_main([
        "features",
        str(out_dir / "ecg_60s.csv"),
        str(out_dir / "gsr_60s.csv"),
        "-o", str(out_dir / "golden_features.csv"),
    ])
    assert rc == 0
    feats = parse_features_csv(out_dir / "golden_features.csv")
    print(f"wrote golden_features.csv ({len(feats)} windows)")
    rc = cli_main([
        "features",
        str(out_dir / "ecg_60s.csv"),
        str(out_dir / "gsr_60s.csv"),
        "--json", "-o", str(out_dir / "golden_features.json"),
    ])
    assert rc == 0
    print("wrote golden_features.json")

    (out_dir / "hand_2_2_1.net").write_text(HAND_NET, encoding="ascii")
    print("wrote hand_2_2_1.net")

    for seed in range(1234, 1434):
        net = build_network_a(seed=seed)
        write_fann(net, out_dir / "network_a_random.net")
        sizes, mats = parse_net_file(out_dir / "network_a_random.net")
        assert sizes == [5, 50, 50, 3]

        rows, ok = [], True
        fp = quantize(net, QFormat(16))
        for i, feat in enumerate(feats):
            out = oracle_forward(mats, feat)
            order = sorted(out, reverse=True)
            margin = order[0] - order[1]
            label = out.index(max(out))
            fixed_label = int(np.argmax(infer_fixed(fp, np.array(feat))))
            if margin < MIN_MARGIN or fixed_label != label:
                ok = False
                break
            rows.append(f"{i},{label},{margin:.9g}")
        if ok:
            break
    else:
        raise SystemExit("no seed gave comfortable margins; widen the search")

    write_fann(fp, out_dir / "network_a_q16.net")
    (out_dir / "golden_labels.csv").write_text(
        "row,label,margin\n" + "\n".join(rows) + "\n", encoding="ascii"
    )
    print(f"wrote network_a_random.net, network_a_q16.net (seed {seed})")
    print("wrote golden_labels.csv:", rows)

    # train --json prints the -o path as given, so train from inside out_dir
    with tempfile.TemporaryDirectory() as tmp:
        feats_csv, labels_csv, _ = write_training_set(Path(tmp))
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(out_dir)
        try:
            with contextlib.redirect_stdout(out):
                rc = cli_main([
                    "train", str(feats_csv), str(labels_csv),
                    "-o", "golden_train.net", "--json",
                ])
        finally:
            os.chdir(cwd)
    assert rc == 0
    (out_dir / "golden_train.json").write_text(out.getvalue(), encoding="ascii")
    print("wrote golden_train.net, golden_train.net.norm.json, golden_train.json")


if __name__ == "__main__":
    main(*sys.argv[1:2])
