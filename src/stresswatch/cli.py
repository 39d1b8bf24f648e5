"""Command-line front end for the whole pipeline.

Subcommands:

* ``features``   - ECG + GSR CSVs -> windowed feature CSV
* ``classify``   - feature CSV + model file -> label and margin per row
* ``train``      - feature CSV + label CSV -> trained model file
* ``quantize``   - float model file -> fixed-point model file
* ``report``     - calibrated cycle/time/energy table per platform
* ``budget``     - harvest scenario -> sustainability report and SoC sim
* ``footprint``  - memory footprint of a network

Exit codes: 0 success, 2 unparseable input, 3 insufficient/invalid data,
4 shape mismatch, 5 bad configuration. Every subcommand takes ``--json``
for machine-readable output. Output depends only on the arguments (and the
explicit ``--seed`` where randomness exists), byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import shutil
import sys
import warnings

import numpy as np

from . import biosignal_features as bf
from . import harvest_sim as hs
from . import nn_core, perf_model
from .errors import (
    ConfigError,
    InsufficientDataError,
    ParseError,
    ShapeError,
    StressWatchError,
)
from .quantizer import FixedPointNet, QFormat, dequantize_network, infer_fixed, quantize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DATA = 3
EXIT_SHAPE = 4
EXIT_CONFIG = 5

ECG_HEADER = ("time_s", "ecg")
GSR_HEADER = ("time_s", "gsr_uS")
LABELS_HEADER = ("label",)

# classify runs each kernel on blocks of this many rows: faster than one call
# per file, at a fraction of its peak memory
CLASSIFY_BLOCK_ROWS = 256
# budget --soc-out formats and writes this many per-second lines at a time
SOC_OUT_CHUNK_LINES = 65536


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _emit_json(obj, path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _read_csv(path: str, header: tuple[str, ...], kind: type = float) -> np.ndarray:
    """Rows under a checked header as a ``(rows, len(header))`` array of ``kind``.

    The body is parsed in bulk by ``np.loadtxt``. Any file it does not take
    cleanly (an error, a warning, a column count other than the header's)
    goes through ``_scan_csv``, which defines what is accepted and reports
    the offending line, so both paths give the same array or the same error.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        first = fh.readline()
        if '"' not in first and [c.strip() for c in first.split(",")] == list(header):
            try:
                with warnings.catch_warnings():
                    # a header-only file warns "input contained no data"
                    warnings.simplefilter("error")
                    rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=kind)
            except (ValueError, Warning):
                pass
            else:
                if rows.shape[1] == len(header):
                    return rows
    return _scan_csv(path, header, kind)


def _scan_csv(path: str, header: tuple[str, ...], kind: type) -> np.ndarray:
    """The reference reader behind ``_read_csv``, one ``csv`` row at a time.

    It alone takes quoted cells, Python number syntax such as ``1_0``, and
    whitespace-only lines, and it raises ``ParseError`` with the line number.
    """
    values = []
    linenos = []  # the line of each data row
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1:
                cells = [c.strip() for c in row]
                if cells != list(header):
                    raise ParseError(
                        f"expected header {','.join(header)!r}, got {','.join(cells)!r}",
                        line=1,
                    )
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} column(s), got {len(row)}", line=lineno
                )
            try:
                # float() and int() skip surrounding whitespace themselves
                values.extend(map(kind, row))
            except ValueError:
                raise ParseError(
                    f"expected {kind.__name__} values, got {row!r}", line=lineno
                ) from None
            linenos.append(lineno)
    try:
        return np.array(values, dtype=kind).reshape(-1, len(header))
    except OverflowError:
        # only an int cell beyond the int64 range gets here
        bad = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise ParseError(
            f"value {values[bad]} is outside the 64-bit integer range",
            line=linenos[bad // len(header)],
        ) from None


def _load_norm(model_path: str, norm_file: str | None, disabled: bool):
    """(mean, std) from the sidecar written by train, or None."""
    if disabled:
        return None
    path = norm_file if norm_file is not None else model_path + ".norm.json"
    if norm_file is None and not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        mean = np.array(doc["mean"], dtype=np.float64)
        std = np.array(doc["std"], dtype=np.float64)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: invalid normalization sidecar: {exc}") from None
    if (
        mean.shape != std.shape
        or mean.ndim != 1
        or not (np.isfinite(mean).all() and np.isfinite(std).all())
        or (std <= 0).any()
    ):
        raise ParseError(f"{path}: normalization sidecar is malformed")
    return mean, std


def cmd_features(args) -> int:
    try:
        cfg = bf.WindowConfig(args.window_s, args.overlap)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not math.isfinite(args.gsr_threshold):
        raise ConfigError(f"--gsr-threshold must be finite, got {args.gsr_threshold}")
    ecg, gsr = _read_csv(args.ecg, ECG_HEADER), _read_csv(args.gsr, GSR_HEADER)
    for path, rows in ((args.ecg, ecg), (args.gsr, gsr)):
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise InsufficientDataError(f"{path}: data row {bad[0]} contains a non-finite value")
    # contiguous columns: numpy float sums over strided views can round differently
    ecg_t, ecg_x = np.ascontiguousarray(ecg.T)
    gsr_t, gsr_x = np.ascontiguousarray(gsr.T)
    for path, t in ((args.ecg, ecg_t), (args.gsr, gsr_t)):
        if not (np.diff(t) > 0).all():
            raise InsufficientDataError(f"{path}: time_s must be strictly increasing")
    if gsr_t.size < 2:
        raise InsufficientDataError("GSR recording has fewer than 2 samples")
    trace = bf.GsrTrace(gsr_t, gsr_x)
    rows = bf.extract_window_features(
        ecg_t, ecg_x, trace, cfg, gsr_threshold_us=args.gsr_threshold
    ).tolist()
    for row in rows:
        row[2] = int(row[2])  # NN50 is a count: written without a decimal point
    if args.json:
        _emit_json({"windows": [dict(zip(bf.FEATURE_NAMES, row)) for row in rows]}, args.output)
    else:
        lines = [",".join(bf.FEATURE_NAMES)]
        lines += [f"{r:.12g},{s:.12g},{n},{h:.12g},{d:.12g}" for r, s, n, h, d in rows]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _qformat(frac_bits: int) -> QFormat:
    try:
        return QFormat(frac_bits)
    except ValueError as exc:
        raise ConfigError(f"--frac-bits: {exc}") from None


def cmd_classify(args) -> int:
    qformat = _qformat(16 if args.frac_bits is None else args.frac_bits)
    features = _read_csv(args.features, bf.FEATURE_NAMES)
    model = nn_core.read_fann(args.model)
    norm = _load_norm(args.model, args.norm_file, args.no_norm)

    fixed_in_file = isinstance(model, FixedPointNet)
    if args.frac_bits is not None and not (args.fixed or fixed_in_file):
        raise ConfigError(f"--frac-bits needs --fixed to quantize the float model {args.model}")
    if fixed_in_file and args.frac_bits not in (None, model.qformat.frac_bits):
        raise ConfigError(
            f"--frac-bits {args.frac_bits} differs from the "
            f"{model.qformat.frac_bits} fractional bits of {args.model}"
        )
    use_fixed = args.fixed or fixed_in_file
    if fixed_in_file:
        fixed_net, float_net = model, dequantize_network(model)
    elif use_fixed:
        fixed_net, float_net = quantize(model, qformat), model
    else:
        fixed_net, float_net = None, model

    if features.size and features.shape[1] != float_net.n_inputs:
        raise ShapeError(
            f"model takes {float_net.n_inputs} inputs, "
            f"features have {features.shape[1]} columns"
        )
    x = features
    if norm is not None and x.shape[0]:
        if norm[0].size != x.shape[1]:
            raise ShapeError("normalization sidecar length does not match features")
        x = (x - norm[0]) / norm[1]
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise InsufficientDataError(f"feature row {bad[0]} contains a non-finite value")

    outputs = np.empty((x.shape[0], float_net.n_outputs))
    max_disc = 0.0
    for start in range(0, x.shape[0], CLASSIFY_BLOCK_ROWS):
        block = x[start:start + CLASSIFY_BLOCK_ROWS]
        out_float = nn_core.infer_float(float_net, block)
        out = infer_fixed(fixed_net, block) if use_fixed else out_float
        if use_fixed:
            max_disc = max(max_disc, float(np.max(np.abs(out - out_float))))
        outputs[start:start + block.shape[0]] = out
    labels = np.argmax(outputs, axis=1).tolist()
    order = np.sort(outputs, axis=1)[:, ::-1]
    margins = (order[:, 0] - order[:, 1] if order.shape[1] >= 2 else order[:, 0]).tolist()

    if args.json:
        _emit_json(
            {
                "rows": [
                    {
                        "row": i,
                        "label": label,
                        "margin": margin,
                        "outputs": out.tolist(),
                    }
                    for i, (label, margin, out) in enumerate(zip(labels, margins, outputs))
                ],
                "fixed": use_fixed,
                "max_abs_discrepancy": max_disc if use_fixed else None,
            },
            args.output,
        )
    else:
        lines = ["row,label,margin"]
        for i, (label, margin) in enumerate(zip(labels, margins)):
            lines.append(f"{i},{label},{margin:.9g}")
        _emit("\n".join(lines) + "\n", args.output)
        if use_fixed:
            print(f"max |fixed - float| output discrepancy: {max_disc:.3g}", file=sys.stderr)
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError("--sizes needs at least 2 positive layer sizes")
    return sizes


def cmd_train(args) -> int:
    if args.epochs < 0:
        raise ConfigError(f"--epochs must not be negative, got {args.epochs}")
    if args.seed < 0:
        raise ConfigError(f"--seed must not be negative, got {args.seed}")
    if not math.isfinite(args.learning_rate):
        raise ConfigError(f"--learning-rate must be finite, got {args.learning_rate}")
    features = _read_csv(args.features, bf.FEATURE_NAMES)
    labels = _read_csv(args.labels, LABELS_HEADER, int)[:, 0]
    if features.shape[0] == 0:
        raise InsufficientDataError("training set is empty")
    if labels.shape[0] != features.shape[0]:
        raise ShapeError(
            f"{labels.shape[0]} labels for {features.shape[0]} feature rows"
        )
    sizes = _parse_sizes(args.sizes)
    if features.shape[1] != sizes[0]:
        raise ShapeError(
            f"network takes {sizes[0]} inputs, features have {features.shape[1]} columns"
        )
    n_classes = sizes[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ShapeError(
            f"labels must lie in [0, {n_classes - 1}] for a {n_classes}-output network"
        )

    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise InsufficientDataError(f"feature row {bad[0]} contains a non-finite value")

    x = features
    norm = None
    if not args.no_normalize:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            std = x.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if bad.size:
            raise InsufficientDataError(
                f"feature column {bf.FEATURE_NAMES[bad[0]]} overflows: "
                "its mean or standard deviation is not finite"
            )
        std = np.where(std > 0, std, 1.0)
        x = (x - mean) / std
        norm = (mean, std)

    # tanh-friendly one-hot targets: +-0.9 keeps the loss away from the
    # saturated tails where gradients vanish.
    targets = np.full((x.shape[0], n_classes), -0.9)
    targets[np.arange(x.shape[0]), labels] = 0.9

    net = nn_core.build_mlp(sizes, seed=args.seed)
    dataset = list(zip(x, targets))
    net = nn_core.train(net, dataset, epochs=args.epochs, learning_rate=args.learning_rate)
    final_mse = nn_core.mse_loss(net, dataset)

    nn_core.write_fann(net, args.output)
    if norm is not None:
        sidecar = args.output + ".norm.json"
        with open(sidecar, "w", encoding="ascii") as fh:
            json.dump(
                {"mean": [float(v) for v in norm[0]], "std": [float(v) for v in norm[1]]},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")

    if args.json:
        _emit_json(
            {
                "model": args.output,
                "normalized": norm is not None,
                "epochs": args.epochs,
                "final_mse": final_mse,
            },
            None,
        )
    else:
        print(f"trained {'-'.join(str(s) for s in sizes)} model -> {args.output}")
        print(f"final mse: {final_mse:.6g}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    qformat = _qformat(args.frac_bits)
    model = nn_core.read_fann(args.model)
    if isinstance(model, FixedPointNet):
        raise ConfigError(f"{args.model} is already fixed point")
    fp = quantize(model, qformat)
    nn_core.write_fann(fp, args.output)
    # carry the normalization sidecar along so classify keeps scaling
    # inputs the way the float model was trained
    sidecar = args.model + ".norm.json"
    copied = None
    if os.path.exists(sidecar):
        copied = args.output + ".norm.json"
        shutil.copyfile(sidecar, copied)
    if args.json:
        _emit_json(
            {
                "output": args.output,
                "frac_bits": args.frac_bits,
                "saturated_weights": fp.saturated_weights,
                "norm_sidecar": copied,
            },
            None,
        )
    else:
        print(f"quantized to Q{32 - args.frac_bits}.{args.frac_bits} -> {args.output}")
        print(f"saturated weights: {fp.saturated_weights}")
        if copied:
            print(f"normalization sidecar copied to {copied}")
    return EXIT_OK


def _print_table(rows: list[dict], columns: list[str]) -> None:
    cells = [[str(r[c]) if isinstance(r[c], (int, str)) else _fmt(r[c]) for c in columns]
             for r in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
              for i, col in enumerate(columns)]
    print("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip())
    for row in cells:
        print("  ".join(row[i].rjust(widths[i]) for i in range(len(columns))).rstrip())


def cmd_report(args) -> int:
    table = perf_model.load_calibration(args.calibration) if args.calibration \
        else perf_model.builtin_calibration()
    rows = perf_model.calibration_report(table)
    if args.all and (args.platform or args.network):
        raise ConfigError("--all cannot be combined with --platform/--network")
    if args.platform:
        if args.platform not in table.cycles:
            raise ConfigError(
                f"unknown platform {args.platform!r}; "
                f"choose from {sorted(table.cycles)}"
            )
        rows = [r for r in rows if r["platform"] == args.platform]
    if args.network:
        rows = [r for r in rows if r["network"] == args.network]

    columns = ["platform", "network", "cycles", "time_us", "energy_uj",
               "speedup_vs_cortex_m4"]
    if args.json:
        _emit_json({"rows": rows}, None)
    elif args.csv:
        lines = [",".join(columns)]
        for r in rows:
            lines.append(",".join(
                str(r[c]) if isinstance(r[c], (int, str)) else _fmt(r[c])
                for c in columns
            ))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print_table(rows, columns)
    return EXIT_OK


def _resolve_scenario(args) -> hs.HarvestScenario:
    if args.scenario_file:
        if args.teg_hours is not None or args.solar_hours is not None:
            raise ConfigError("--teg-hours/--solar-hours apply to built-in scenarios only")
        return hs.scenario_from_config(args.scenario_file)
    name = args.scenario
    builtins = hs.builtin_scenarios()
    if name not in builtins:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(builtins))}"
        )
    if name == "indoor-day":
        return hs.indoor_day_scenario(
            solar_hours=args.solar_hours if args.solar_hours is not None else 6.0,
            teg_hours=args.teg_hours if args.teg_hours is not None else 24.0,
        )
    if args.teg_hours is not None or args.solar_hours is not None:
        raise ConfigError("--teg-hours/--solar-hours apply to the indoor-day scenario only")
    return builtins[name]


@functools.lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two read-only spellings of 0..9999, each entry 4 ASCII bytes in one uint32.

    Entry ``k`` of the first spells ``k`` without leading zeros (0 as
    ``0``), entry ``k`` of the second without trailing zeros (0 as nothing);
    entry ``10000 + k`` of both is the full spelling, such as ``0042``. A
    dropped digit is a 0 byte.
    """
    k = np.arange(10000)[:, None]
    col = np.arange(4)
    full = (48 + k // 10 ** (3 - col) % 10).astype(np.uint8)
    lead = np.where((k >= 10 ** (3 - col)) | (col == 3), full, 0).astype(np.uint8)
    trail = np.where(k % 10 ** (4 - col) != 0, full, 0).astype(np.uint8)
    tables = tuple(np.concatenate([t, full]).view(np.uint32).ravel() for t in (lead, trail))
    for t in tables:
        t.setflags(write=False)
    return tables


def _soc_lines(start: int, n: np.ndarray) -> bytes:
    """The lines ``f"{i},{v:.12g}\\n"`` of the charges ``v = n / 1e9`` J,
    given as int64 nJ ``n`` and numbered from ``start``, as ASCII bytes.

    One int64 division splits each charge into whole joules and nJ; both,
    and the index, are cut into 4-digit groups with uint32 arithmetic and
    spelled through the 4-digit tables into a 24-byte row (index, comma,
    integer part, point, 9 decimals, newline). Unused bytes are 0, and one
    ``bytes.translate`` drops them. The f-string is the reference: it
    formats the chunk whenever a charge needs an exponent (below 1e-4 J) or
    may round to a 5th integer digit, or an index has more than 8 digits.
    """
    if not (
        start + n.size <= 10**8
        and ((n < 10**13 - 5) & ((n >= 10**5) | (n == 0))).all()
    ):
        lines = enumerate((n / 1e9).tolist(), start)
        return "".join(f"{i},{v:.12g}\n" for i, v in lines).encode("ascii")
    big = n >= 10**12
    if big.any():
        # from 1000 J on, 12 significant digits end at 10 nJ; on a 5 the binary
        # value decides which way to round, as it does for the f-string
        tie = np.flatnonzero(big & (n % 10 == 5))
        rounded = np.where(big, (n + 5) // 10 * 10, n)
        rounded[tie] = [int(f"{v:.8f}".replace(".", "")) * 10 for v in (n[tie] / 1e9).tolist()]
        n = rounded

    lead, trail = _digit_tables()
    whole = n // 10**9
    frac = (n - whole * 10**9).astype(np.uint32)
    whole = whole.astype(np.uint32)
    i = np.arange(start, start + n.size, dtype=np.uint32)
    i_hi = i // 10**4
    i_lo = i - i_hi * 10**4
    f_hi = frac // 10**5
    rest = frac - f_hi * 10**5
    f_lo = rest // 10
    f_last = rest - f_lo * 10
    rows = np.empty((n.size, 24), dtype=np.uint8)
    for col, word in (
        (0, np.where(i_hi != 0, np.take(lead, i_hi), 0)),
        (4, np.take(lead, i_lo + 10**4 * (i_hi != 0))),
        (9, np.take(lead, whole)),
        # a decimal group keeps its trailing zeros when a later digit is not 0
        (14, np.take(trail, f_hi + 10**4 * (rest != 0))),
        (18, np.take(trail, f_lo + 10**4 * (f_last != 0))),
    ):
        rows[:, col:col + 4].view(np.uint32)[:, 0] = word
    rows[:, 8] = ord(",")
    rows[:, 13] = np.where(frac != 0, ord("."), 0)
    rows[:, 22] = np.where(f_last != 0, ord("0") + f_last, 0)
    rows[:, 23] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def cmd_budget(args) -> int:
    table = perf_model.load_calibration(args.calibration) if args.calibration \
        else perf_model.builtin_calibration()
    scenario = _resolve_scenario(args)
    e_det = perf_model.detection_energy(args.platform, table)
    report = hs.sustainable_rate(scenario, e_det)

    sim = None
    if args.days is not None:
        battery = hs.BatteryState(
            capacity_j=args.battery_mah * 3.6 * args.battery_volts,
        )
        if args.start_charge is not None:
            if not 0.0 <= args.start_charge <= 1.0:
                raise ConfigError("--start-charge must lie in [0, 1]")
            battery = hs.BatteryState(
                capacity_j=battery.capacity_j,
                charge_j=battery.capacity_j * args.start_charge,
            )
        rate = args.rate if args.rate is not None else report.max_detections_per_minute
        sim = hs.simulate_soc(scenario, battery, rate, e_det, days=args.days)
        if args.soc_out is not None:
            try:
                series = hs.charge_series_nj(sim)
            except ConfigError:
                raise ConfigError(
                    f"--soc-out records the charge as int64 nJ, which cannot hold a "
                    f"{battery.capacity_j:g} J battery; lower --battery-mah or --battery-volts"
                ) from None
            with open(args.soc_out, "wb") as fh:
                fh.write(b"t_s,charge_j\n")
                for s in range(0, series.size, SOC_OUT_CHUNK_LINES):
                    fh.write(_soc_lines(s, series[s:s + SOC_OUT_CHUNK_LINES]))

    if args.json:
        doc = {
            "scenario": scenario.name,
            "platform": args.platform,
            "daily_intake_j": report.daily_intake_j,
            "detection_energy_j": report.detection_energy_j,
            "max_detections_per_day": report.max_detections_per_day,
            "max_detections_per_minute": report.max_detections_per_minute,
            "detections_per_day_exact": report.detections_per_day_exact,
        }
        if sim is not None:
            doc["simulation"] = {k: v for k, v in vars(sim).items() if k != "segments"}
        _emit_json(doc, None)
    else:
        print(f"scenario:          {scenario.name}")
        print(f"platform:          {args.platform}")
        print(f"daily intake:      {_fmt(report.daily_intake_j)} J")
        print(f"detection energy:  {_fmt(report.detection_energy_j * 1e6)} uJ")
        print(
            f"sustainable rate:  {report.max_detections_per_day} detections/day "
            f"({_fmt(report.max_detections_per_minute)}/min, "
            f"exact {report.detections_per_day_exact:.9g}/day)"
        )
        if sim is not None:
            print(f"simulated days:    {sim.days}")
            print(f"final charge:      {_fmt(sim.final_charge_j)} J")
            print(f"charge range:      [{_fmt(sim.min_charge_j)}, {_fmt(sim.max_charge_j)}] J")
            print(f"intake/served:     {_fmt(sim.intake_j)} / {_fmt(sim.served_j)} J")
            print(f"spilled/unmet:     {_fmt(sim.spilled_j)} / {_fmt(sim.unmet_j)} J")
            print(f"brownout:          {'yes' if sim.brownout else 'no'}")
    return EXIT_OK


def cmd_footprint(args) -> int:
    given = sum(1 for v in (args.network, args.model, args.sizes) if v)
    if given != 1:
        raise ConfigError("specify exactly one of --network, --model, --sizes")
    if args.network:
        net = nn_core.build_network_a() if args.network == "A" else nn_core.build_network_b()
    elif args.model:
        net = nn_core.read_fann(args.model)
    else:
        net = nn_core.build_mlp(_parse_sizes(args.sizes))
    fp = nn_core.footprint(net)
    if args.json:
        _emit_json(
            {
                "layer_sizes": list(net.layer_sizes),
                "neurons": net.neuron_count,
                "weights": net.weight_count,
                "layers": net.layer_count,
                "neuron_bytes": fp.neuron_bytes,
                "weight_bytes": fp.weight_bytes,
                "layer_bytes": fp.layer_bytes,
                "total_bytes": fp.total_bytes,
            },
            None,
        )
    else:
        print(f"layers:       {'-'.join(str(s) for s in net.layer_sizes)}")
        print(f"neurons:      {net.neuron_count}")
        print(f"weights:      {net.weight_count}")
        print(f"neuron bytes: {fp.neuron_bytes}")
        print(f"weight bytes: {fp.weight_bytes}")
        print(f"layer bytes:  {fp.layer_bytes}")
        print(f"total bytes:  {fp.total_bytes} ({fp.total_bytes / 1000:.6g} kB)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stresswatch",
        description="Stress-detection pipeline: biosignal features, MLP "
        "classification (float or fixed point), embedded performance "
        "prediction, and energy-harvesting budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract windowed features from ECG/GSR CSVs")
    p.add_argument("ecg", help="CSV with header time_s,ecg")
    p.add_argument("gsr", help="CSV with header time_s,gsr_uS")
    p.add_argument("-o", "--output", help="output CSV (default stdout)")
    p.add_argument("--window-s", type=float, default=bf.DEFAULT_WINDOW_S)
    p.add_argument("--overlap", type=float, default=bf.DEFAULT_OVERLAP)
    p.add_argument("--gsr-threshold", type=float, default=bf.DEFAULT_GSR_THRESHOLD_US,
                   help="minimum rise (uS) for a GSR run to count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("classify", help="run the classifier over feature rows")
    p.add_argument("features", help="CSV from the features subcommand")
    p.add_argument("--model", required=True, help="network file (float or fixed)")
    p.add_argument("--fixed", action="store_true",
                   help="quantize a float model and use the integer path")
    p.add_argument("--frac-bits", type=int,
                   help="fraction bits in [1, 30] for --fixed (default 16); a float "
                        "model without --fixed takes none, and a fixed-point model "
                        "file only its own")
    p.add_argument("--norm-file", help="normalization sidecar (default: <model>.norm.json)")
    p.add_argument("--no-norm", action="store_true", help="skip input normalization")
    p.add_argument("-o", "--output", help="output CSV (default stdout)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("train", help="train a network on labeled feature rows")
    p.add_argument("features")
    p.add_argument("labels", help="CSV with header 'label' and one class index per row")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--sizes", default="5,50,50,3", help="comma-separated layer sizes")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-normalize", action="store_true",
                   help="train on raw features, write no sidecar")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="convert a float model file to fixed point")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--frac-bits", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("report", help="cycle/time/energy table for the platforms")
    p.add_argument("--network", choices=["A", "B"])
    p.add_argument("--platform")
    p.add_argument("--all", action="store_true", help="show every platform and network")
    p.add_argument("--calibration", help="YAML calibration table (default built in)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("budget", help="daily energy budget and sustainability")
    p.add_argument("--scenario", default="indoor-day",
                   help="built-in scenario name (see --help for files)")
    p.add_argument("--scenario-file", help="YAML schedule instead of a built-in")
    p.add_argument("--platform", default="ri5cy_multi8")
    p.add_argument("--days", type=int, help="also run a state-of-charge simulation")
    p.add_argument("--rate", type=float,
                   help="detections per minute (default: the sustainable rate)")
    p.add_argument("--soc-out", help="write per-second charge CSV (t_s,charge_j)")
    p.add_argument("--teg-hours", type=float, help="indoor-day: hours of TEG wear")
    p.add_argument("--solar-hours", type=float, help="indoor-day: hours of indoor light")
    p.add_argument("--battery-mah", type=float, default=hs.BATTERY_CAPACITY_MAH)
    p.add_argument("--battery-volts", type=float, default=hs.BATTERY_NOMINAL_V)
    p.add_argument("--start-charge", type=float,
                   help="initial charge as a fraction of capacity (default 1.0)")
    p.add_argument("--calibration", help="YAML calibration table (default built in)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("footprint", help="memory footprint of a network")
    p.add_argument("--network", choices=["A", "B"])
    p.add_argument("--model", help="network file to measure")
    p.add_argument("--sizes", help="comma-separated layer sizes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_footprint)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StressWatchError as exc:
        # insufficient data, divergence, fixed-point range: data problems
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
