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
import contextlib
import csv
import functools
import io
import json
import lzma
import os
import stat
import sys
import warnings

import numpy as np

from . import biosignal_features as bf
from . import harvest_sim as hs
from . import nn_core, perf_model
from .errors import (
    ActivationOverflowError,
    ConfigError,
    FixedPointRangeError,
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
# main's exit code for each error it reports; the first matching type wins,
# so StressWatchError takes the other data problems (insufficient data,
# divergence, fixed-point range)
_ERROR_EXITS = ((ParseError, EXIT_PARSE), (ShapeError, EXIT_SHAPE), (ConfigError, EXIT_CONFIG),
                (StressWatchError, EXIT_DATA), (OSError, EXIT_PARSE))

ECG_HEADER = ("time_s", "ecg")
GSR_HEADER = ("time_s", "gsr_uS")
LABELS_HEADER = ("label",)

# classify runs each kernel on blocks of this many rows: faster than one call
# per file, at a fraction of its peak memory
CLASSIFY_BLOCK_ROWS = 256
# budget --soc-out formats and writes this many per-second lines at a time
SOC_OUT_CHUNK_LINES = 16384


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with nn_core._open_output(path) as fh:
            fh.write(text.encode("ascii"))


def _emit_json(obj, path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _read_csv(path: str, header: tuple[str, ...], kind: type = float) -> np.ndarray:
    """Rows under a checked header as a ``(rows, len(header))`` array of ``kind``.

    The header is the first ``csv`` row, so it may be quoted; its cells,
    stripped, must be ``header``. Any other first row, that of an empty file
    or a blank first line included, is a ``ParseError`` at line 1. A row the
    ``csv`` reader refuses (a cell past its field size limit, say), header
    or body, is a ``ParseError`` at the line the reader stopped on.

    The body is parsed in bulk by ``np.loadtxt``, which skips the lines the
    header took. Any body it does not take cleanly (an error, a warning, a
    column count other than the header's) goes through ``_scan_csv``, which
    defines what is accepted and reports the offending line, so both paths
    give the same array or the same error.

    ``np.loadtxt`` gets the absolute path, not the open handle: it parses a
    path in large chunks but a handle one line per ``next()``, which took
    a quarter longer on a 920 k-row ECG. Absolute, so that numpy's data
    source cannot take a local name such as ``http://x/a.csv`` for a URL.
    The data source picks a decompressor from the suffix, so a plain-text
    file named ``a.csv.gz`` raises ``OSError`` (``.xz``: ``LZMAError``) and
    goes through ``_scan_csv`` like any other file numpy does not take.
    A pipe or other non-regular file can be read only once, so its bytes
    are read into memory first, and ``np.loadtxt`` reads them through a
    second in-memory handle.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            source = os.path.abspath(path)
        else:
            data = fh.buffer.read()
            fh, source = (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
                          for _ in range(2))
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
        try:
            with warnings.catch_warnings():
                # a header-only file warns "input contained no data"
                warnings.simplefilter("error")
                body = np.loadtxt(
                    source, skiprows=rows.line_num, encoding="utf-8-sig",
                    delimiter=",", comments=None, ndmin=2, dtype=kind,
                )
        except (ValueError, OSError, lzma.LZMAError, Warning):
            pass
        else:
            if body.shape[1] == len(header):
                return body
        return _scan_csv(rows, path, header, kind)


def _scan_csv(rows, path: str, header: tuple[str, ...], kind: type) -> np.ndarray:
    """The reference reader of a body behind ``_read_csv``: ``rows``, the
    ``csv`` reader of a text handle past its header, one row at a time.

    It alone takes quoted cells, Python number syntax such as ``1_0``, and
    whitespace-only lines, and it raises ``ParseError`` at the physical line
    a bad row ends on, or naming the file ``path`` when it is not UTF-8 text.
    """
    values = []
    linenos = []  # the physical line each data row ends on, as csv counts it
    try:
        for row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} column(s), got {len(row)}", line=rows.line_num
                )
            try:
                # float() and int() skip surrounding whitespace themselves
                values.extend(map(kind, row))
            except ValueError:
                raise ParseError(
                    f"expected {kind.__name__} values, got {row!r}", line=rows.line_num
                ) from None
            linenos.append(rows.line_num)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a UTF-8 text file") from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=rows.line_num) from None
    try:
        return np.array(values, dtype=kind).reshape(-1, len(header))
    except OverflowError:
        # only an int cell beyond the int64 range gets here
        bad = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise ParseError(
            f"value {values[bad]} is outside the 64-bit integer range",
            line=linenos[bad // len(header)],
        ) from None


def _check_finite(rows: np.ndarray, what: str) -> None:
    """Raise ``InsufficientDataError`` naming the first row of ``rows`` that
    holds a NaN or an infinity, as ``f"{what} {index}"``.

    One ``isfinite(...).all()`` over the whole array: a row-wise
    ``all(axis=1)`` over a few columns loops once per row, about 20 times
    slower on a 1 M-row recording. The row is located only on failure.
    """
    finite = np.isfinite(rows)
    if not finite.all():
        row = int(np.argmin(finite)) // rows.shape[1]
        raise InsufficientDataError(f"{what} {row} contains a non-finite value")


def _load_norm(model_path: str, norm_file: str | None):
    """(mean, std) from the sidecar written by train, or None."""
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


def _write_norm(model_path: str, norm) -> str | None:
    """Write ``norm`` = (mean, std) as the model's sidecar and return its path;
    with ``norm`` None, delete a sidecar left by an earlier model at the same
    path, so that classify does not scale a new model's inputs by it."""
    path = model_path + ".norm.json"
    if norm is None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        return None
    _emit_json({"mean": [float(v) for v in norm[0]], "std": [float(v) for v in norm[1]]},
               path)
    return path


def cmd_features(args) -> int:
    cfg = bf.WindowConfig(args.window_s, args.overlap)
    ecg, gsr = _read_csv(args.ecg, ECG_HEADER), _read_csv(args.gsr, GSR_HEADER)
    for path, rows in ((args.ecg, ecg), (args.gsr, gsr)):
        _check_finite(rows, f"{path}: data row")
    if len(gsr) < 2:
        raise InsufficientDataError("GSR recording has fewer than 2 samples")
    # Columns of one finite row array: the only ValueError left in the trace
    # and the extraction is a time base that does not strictly increase. No
    # feature sums over these strided views, so a contiguous copy (another
    # 15 MB for a 1 h ECG) would change no bit.
    try:
        trace = bf.GsrTrace(gsr[:, 0], gsr[:, 1])
    except ValueError:
        raise InsufficientDataError(f"{args.gsr}: time_s must be strictly increasing") from None
    try:
        rows = bf.extract_window_features(
            ecg[:, 0], ecg[:, 1], trace, cfg, gsr_threshold_us=args.gsr_threshold
        ).tolist()
    except ValueError:
        raise InsufficientDataError(f"{args.ecg}: time_s must be strictly increasing") from None
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
    if args.norm_file is not None and args.no_norm:
        raise ConfigError("--norm-file cannot be combined with --no-norm")
    qformat = _qformat(16 if args.frac_bits is None else args.frac_bits)
    features = _read_csv(args.features, bf.FEATURE_NAMES)
    model = nn_core.read_fann(args.model)
    norm = None if args.no_norm else _load_norm(args.model, args.norm_file)

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
    _check_finite(features, "feature row")
    x = features
    if norm is not None and x.shape[0]:
        if norm[0].size != x.shape[1]:
            raise ShapeError("normalization sidecar length does not match features")
        with np.errstate(over="ignore"):
            x = (x - norm[0]) / norm[1]
        rows, cols = np.nonzero(~np.isfinite(x))
        if rows.size:
            raise InsufficientDataError(
                f"feature row {rows[0]}: {bf.FEATURE_NAMES[cols[0]]} overflows "
                "when scaled by the normalization sidecar"
            )

    outputs = np.empty((x.shape[0], float_net.n_outputs))
    max_disc = 0.0
    for start in range(0, x.shape[0], CLASSIFY_BLOCK_ROWS):
        block = x[start:start + CLASSIFY_BLOCK_ROWS]
        try:
            out_float = nn_core.infer_float(float_net, block)
        except ActivationOverflowError as exc:
            raise InsufficientDataError(
                f"feature row {start + exc.row} overflows the weighted sum into "
                f"layer {exc.layer} of {args.model}"
            ) from None
        try:
            out = infer_fixed(fixed_net, block) if use_fixed else out_float
        except FixedPointRangeError as exc:
            row, col = divmod(exc.index, block.shape[1])
            fmt = fixed_net.qformat
            verb = "scales to" if norm is not None else "is"
            raise FixedPointRangeError(
                f"feature row {start + row}: {bf.FEATURE_NAMES[col]} {verb} "
                f"{float(block[row, col])!r}, outside the range [{fmt.min_value}, "
                f"{fmt.max_value}] of Q{32 - fmt.frac_bits}.{fmt.frac_bits}"
            ) from None
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
        # one template over [i, label, margin, ...]: the bytes of
        # f"{i},{label},{margin:.9g}" per row, without a format call per row
        n = len(labels)
        flat = [None] * (3 * n)
        flat[0::3] = range(n)
        flat[1::3] = labels
        flat[2::3] = margins
        _emit("row,label,margin\n" + ("%d,%d,%.9g\n" * n) % tuple(flat), args.output)
        if use_fixed:
            print(f"max |fixed - float| output discrepancy: {max_disc:.3g}", file=sys.stderr)
    return EXIT_OK


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {text!r}") from None
    try:
        return nn_core._layer_sizes(sizes)
    except ShapeError as exc:
        raise ConfigError(f"--sizes: {exc}") from None


def cmd_train(args) -> int:
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

    _check_finite(features, "feature row")

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
    _write_norm(args.output, norm)

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
    if os.path.exists(args.output) and os.path.samefile(args.model, args.output):
        raise ConfigError(f"output {args.output} is the input model")
    # carry the normalization sidecar along, checked as classify checks it,
    # so classify keeps scaling inputs the way the float model was trained
    norm = _load_norm(args.model, None)
    fp = quantize(model, qformat)
    nn_core.write_fann(fp, args.output)
    copied = _write_norm(args.output, norm)
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


def _cell(v) -> str:
    return str(v) if isinstance(v, (int, str)) else _fmt(v)


def _print_table(rows: list[dict], columns: list[str]) -> None:
    cells = [[_cell(r[c]) for c in columns] for r in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
              for i, col in enumerate(columns)]
    print("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip())
    for row in cells:
        print("  ".join(row[i].rjust(widths[i]) for i in range(len(columns))).rstrip())


def cmd_report(args) -> int:
    if args.csv and args.json:
        raise ConfigError("--csv cannot be combined with --json")
    table = perf_model.load_calibration(args.calibration) if args.calibration \
        else perf_model.builtin_calibration()
    rows = perf_model.calibration_report(table)
    if args.platform:
        table.profile(args.platform)  # refuses a platform the table lacks
        rows = [r for r in rows if r["platform"] == args.platform]
    if args.network:
        rows = [r for r in rows if r["network"] == args.network]

    columns = ["platform", "network", "cycles", "time_us", "energy_uj",
               "speedup_vs_cortex_m4"]
    if args.json:
        _emit_json({"rows": rows}, None)
    elif args.csv:
        cells = [[_cell(r[c]) for c in columns] for r in rows]
        sys.stdout.write("".join(",".join(row) + "\n" for row in [columns, *cells]))
    else:
        _print_table(rows, columns)
    return EXIT_OK


def _resolve_scenario(args) -> hs.HarvestScenario:
    hours = args.teg_hours is not None or args.solar_hours is not None
    if args.scenario_file:
        if args.scenario is not None:
            raise ConfigError("--scenario cannot be combined with --scenario-file")
        if hours:
            raise ConfigError("--teg-hours/--solar-hours apply to built-in scenarios only")
        return hs.scenario_from_config(args.scenario_file)
    name = "indoor-day" if args.scenario is None else args.scenario
    builtins = hs.builtin_scenarios()
    if name not in builtins:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(builtins))}"
        )
    if not hours:
        return builtins[name]
    if name != "indoor-day":
        raise ConfigError("--teg-hours/--solar-hours apply to the indoor-day scenario only")
    given = {"solar_hours": args.solar_hours, "teg_hours": args.teg_hours}
    return hs.indoor_day_scenario(**{k: v for k, v in given.items() if v is not None})


@functools.lru_cache(maxsize=None)
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two read-only spellings of 0..9999, each entry 4 ASCII bytes in one uint32.

    Entry ``k`` of the first spells ``k`` without leading zeros (0 as
    ``0``), entry ``k`` of the second without trailing zeros (0 as nothing);
    entry ``10000 + k`` of both is the full spelling, such as ``0042``, and
    entry 20000 is blank. A dropped digit is a 0 byte.
    """
    k = np.arange(10000)[:, None]
    col = np.arange(4)
    full = (48 + k // 10 ** (3 - col) % 10).astype(np.uint8)
    lead = np.where((k >= 10 ** (3 - col)) | (col == 3), full, 0).astype(np.uint8)
    trail = np.where(k % 10 ** (4 - col) != 0, full, 0).astype(np.uint8)
    tables = tuple(np.concatenate([t, full, full[:1] * 0]).view(np.uint32).ravel()
                   for t in (lead, trail))
    for t in tables:
        t.setflags(write=False)
    return tables


class _SocWork:
    """Work buffers for up to ``size`` per-second lines, reused by every chunk;
    the rows of each width live in a ``bytearray`` that ``translate`` compacts."""

    def __init__(self, size: int):
        self.wide = np.empty((3, size), dtype=np.int64)
        self.split = np.empty((8, size), dtype=np.uint32)
        self.count = np.arange(size, dtype=np.uint32)
        self.index = np.empty(size, dtype=np.intp)
        self.mask = np.empty(size, dtype=bool)
        self.texts: dict[int, bytearray] = {}


def _soc_lines(start: int, n: np.ndarray, out: _SocWork | None = None) -> bytes | bytearray:
    """The lines ``f"{i},{v:.12g}\\n"`` of the charges ``v = n / 1e9`` J,
    given as int64 nJ ``n`` and numbered from ``start``, as ASCII bytes.

    A chunk's rows share one width: the index and the whole joules in as
    many 4-digit groups as the chunk's largest of each needs (uint32, int64
    past 2^32), a comma, a point, 9 decimals and a newline, all spelled
    through the digit tables; ``bytearray.translate`` drops the unused 0
    bytes. From D >= 4 integer digits on, the charge is first rounded to 12
    significant digits, at 10^(D-3) nJ. The f-string spells single rows
    only: the digits of a charge within the double's error of a half unit,
    and the line of a charge below 1e-4 J (exponent notation). ``out``
    (fresh for ``n`` when None) may be reused across calls.
    """
    m = n.size
    if not m:
        return b""
    work = _SocWork(m) if out is None else out
    ping, pong, scratch = work.wide[:, :m]
    band, index = work.mask[:m], work.index[:m]
    low, high = int(n.min()), int(n.max())
    tiny = np.flatnonzero((n > 0) & (n < 10**5)) if low < 10**5 else []
    charge = n
    for d in range(max(len(str(low // 10**9)), 4), len(str(high // 10**9)) + 1):
        # the double n / 1e9 lies within n * 2^-52 of the charge, so only a
        # charge within `slack` of a half unit may round the other way
        unit, slack = 10 ** (d - 3), 10 ** (d + 9) >> 52
        r = pong if charge is ping else ping
        u = np.add(n.view(np.uint64), unit // 2, out=r.view(np.uint64))  # may exceed int64
        u //= unit
        u *= unit
        # the rows below this band keep their charge; those above round again
        np.copyto(r, charge, where=np.less(n, 10 ** (d + 8), out=band))
        charge = r
        np.abs(np.subtract(r, n, out=scratch), out=scratch)
        tie = np.flatnonzero(np.greater_equal(scratch, unit // 2 - slack, out=band))
        tie = tie[n[tie] < 10 ** (d + 9)]
        r[tie] = [int(f"{v:.{12 - d}f}".replace(".", "")) * unit
                  for v in (n[tie] / 1e9).tolist()]
    last, top = start + m - 1, int(charge.max())
    gi, gw = (-(-len(str(x)) // 4) for x in (last, top // 10**9))
    width = 4 * (gi + gw) + 12
    point = width - 11
    if width not in work.texts:
        work.texts[width] = bytearray(width * work.count.size)
    text = work.texts[width]
    rows = np.frombuffer(text, dtype=np.uint8).reshape(-1, width)
    # rows past this chunk's are 0 throughout, so they drop out with the
    # unused bytes and the whole bytearray translates without a slice copy
    rows[m:] = 0
    rows = rows[:m]
    rows[:, 4 * gi] = ord(",")
    rows[:, width - 1] = ord("\n")
    lead, trail = _digit_tables()
    whole, frac, i, f_hi, rest, f_lo, f_last, tmp = work.split[:, :m]

    def spell(col, table):
        np.take(table, index, out=tmp, mode="clip")
        rows[:, col:col + 4].view(np.uint32)[:, 0] = tmp

    def spell_groups(col, groups, v, lo, above, q):
        # the lead table spells a value's first group (where ``first``), the
        # full table those below it, and the blank entry those above it
        for k in range(groups - 1, -1, -1):
            unit = 10 ** (4 * k)
            q = np.floor_divide(v, unit, out=q) if k else v
            if k == groups - 1:
                np.copyto(index, q)
            else:
                first = np.equal(above, 0, out=band) if lo < unit * 10**4 else None
                np.subtract(q, np.multiply(above, 10**4, out=above), out=above)
                np.add(above, 10**4, out=index)
                if first is not None:
                    np.subtract(index, 10**4, out=index, where=first)
            if k and lo < unit:
                np.copyto(index, 2 * 10**4, where=np.equal(q, 0, out=band))
            spell(col + 4 * (groups - 1 - k), lead)
            above, q = q, above

    # uint32 with two scratch rows that the decimals fill later; int64 past 2^32
    wide = np.empty((3, m), dtype=np.int64) if max(last, top // 10**9) >= 2**32 else None
    i, spare = (i, (f_hi, rest)) if last < 2**32 else (wide[0], wide[1:])
    np.add(work.count[:m], start, out=i, dtype=i.dtype)
    spell_groups(0, gi, i, start, *spare)
    whole, spare = (whole, (f_hi, rest)) if top < 2**32 * 10**9 else (wide[0], wide[1:])
    np.floor_divide(charge, 10**9, out=scratch)
    np.copyto(whole, scratch, casting="unsafe")
    scratch *= 10**9
    np.copyto(frac, np.subtract(charge, scratch, out=scratch), casting="unsafe")
    spell_groups(4 * gi + 1, gw, whole, int(charge.min()) // 10**9 if gw > 1 else 0, *spare)

    np.floor_divide(frac, 10**5, out=f_hi)
    np.subtract(frac, np.multiply(f_hi, 10**5, out=rest), out=rest)
    np.floor_divide(rest, 10, out=f_lo)
    np.subtract(rest, np.multiply(f_lo, 10, out=f_last), out=f_last)
    # a decimal group keeps its trailing zeros when a later digit is not 0
    for col, group, later in ((point + 1, f_hi, rest), (point + 5, f_lo, f_last)):
        np.minimum(later, 1, out=tmp)
        tmp *= 10**4
        np.add(group, tmp, out=index)
        spell(col, trail)
    rows[:, point] = np.multiply(np.minimum(frac, 1, out=tmp), ord("."), out=tmp)
    np.minimum(f_last, 1, out=tmp)
    tmp *= ord("0")
    tmp += f_last
    rows[:, point + 9] = tmp
    for j, v in zip(tiny, (n[tiny] / 1e9).tolist()):
        text[j * width:(j + 1) * width] = f"{start + j},{v:.12g}\n".ljust(width, "\0").encode()
    return text.translate(None, b"\0")


def cmd_budget(args) -> int:
    if args.days is None:
        for flag, value in (("--rate", args.rate), ("--start-charge", args.start_charge),
                            ("--soc-out", args.soc_out), ("--battery-mah", args.battery_mah),
                            ("--battery-volts", args.battery_volts)):
            if value is not None:
                raise ConfigError(f"{flag} needs --days")
    table = perf_model.load_calibration(args.calibration) if args.calibration \
        else perf_model.builtin_calibration()
    scenario = _resolve_scenario(args)
    e_det = perf_model.detection_energy(args.platform, table)
    report = hs.sustainable_rate(scenario, e_det)
    # one disjoint acquisition per detection caps the rate, whatever the energy
    acq_limit = hs.SECONDS_PER_MINUTE / perf_model.ACQUISITION_DURATION_S
    bound = "acquisition" if report.max_detections_per_minute > acq_limit else "energy"

    sim = None
    if args.days is not None:
        mah = hs.BATTERY_CAPACITY_MAH if args.battery_mah is None else args.battery_mah
        volts = hs.BATTERY_NOMINAL_V if args.battery_volts is None else args.battery_volts
        capacity = mah * 3.6 * volts
        start = args.start_charge
        if start is not None and not 0.0 <= start <= 1.0:
            raise ConfigError("--start-charge must lie in [0, 1]")
        battery = hs.BatteryState(capacity_j=capacity,
                                  charge_j=None if start is None else capacity * start)
        rate = args.rate if args.rate is not None else report.max_detections_per_minute
        sim = hs.simulate_soc(scenario, battery, rate, e_det, days=args.days)
        if args.soc_out is not None:
            total = sim.days * hs.DAY_S
            work = _SocWork(min(SOC_OUT_CHUNK_LINES, total))
            with nn_core._open_output(args.soc_out) as fh:
                fh.write(b"t_s,charge_j\n")
                for s in range(0, total, SOC_OUT_CHUNK_LINES):
                    n = hs.charge_series_nj(sim, s, min(s + SOC_OUT_CHUNK_LINES, total))
                    fh.write(_soc_lines(s, n, work))

    if args.json:
        doc = {"scenario": scenario.name, "platform": args.platform, **vars(report),
               "acquisition_limit_per_minute": acq_limit, "binding_bound": bound}
        if sim is not None:
            doc["simulation"] = {k: v for k, v in vars(sim).items() if k != "runs"}
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
        why = (f" ({_fmt(acq_limit)}/min: one {_fmt(perf_model.ACQUISITION_DURATION_S)} s "
               "acquisition per detection)") if bound == "acquisition" else ""
        print(f"binding bound:     {bound}{why}")
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
        sizes = nn_core.NETWORK_A_SIZES if args.network == "A" else nn_core.NETWORK_B_SIZES
    elif args.model:
        # the whole file is read, so a corrupt body fails here as elsewhere
        sizes = nn_core.read_fann(args.model).layer_sizes
    else:
        sizes = _parse_sizes(args.sizes)
    fp = nn_core.footprint_of_sizes(sizes)
    if args.json:
        _emit_json({"layer_sizes": list(sizes), **vars(fp)}, None)
    else:
        print(f"layers:       {'-'.join(str(s) for s in sizes)}")
        print(f"neurons:      {fp.neurons}")
        print(f"weights:      {fp.weights}")
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

    p = sub.add_parser("quantize", help="convert a float model file to fixed point")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--frac-bits", type=int, default=16)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("report", help="cycle/time/energy table for the platforms")
    p.add_argument("--network", choices=["A", "B"])
    p.add_argument("--platform")
    p.add_argument("--calibration", help="YAML calibration table (default built in)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("budget", help="daily energy budget and sustainability")
    p.add_argument("--scenario",
                   help="built-in scenario name (default indoor-day; see --help for files)")
    p.add_argument("--scenario-file", help="YAML schedule instead of a built-in")
    p.add_argument("--platform", default="ri5cy_multi8")
    p.add_argument("--days", type=int, help="also run a state-of-charge simulation")
    p.add_argument("--rate", type=float,
                   help="detections per minute (default: the sustainable rate)")
    p.add_argument("--soc-out", help="write per-second charge CSV (t_s,charge_j)")
    p.add_argument("--teg-hours", type=float, help="indoor-day: hours of TEG wear")
    p.add_argument("--solar-hours", type=float, help="indoor-day: hours of indoor light")
    p.add_argument("--battery-mah", type=float,
                   help=f"battery capacity for --days (default {hs.BATTERY_CAPACITY_MAH:g})")
    p.add_argument("--battery-volts", type=float,
                   help=f"battery voltage for --days (default {hs.BATTERY_NOMINAL_V:g})")
    p.add_argument("--start-charge", type=float,
                   help="initial charge as a fraction of capacity (default 1.0)")
    p.add_argument("--calibration", help="YAML calibration table (default built in)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("footprint", help="memory footprint of a network")
    p.add_argument("--network", choices=["A", "B"])
    p.add_argument("--model", help="network file to measure")
    p.add_argument("--sizes", help="comma-separated layer sizes")
    p.add_argument("--json", action="store_true")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name at call time, so a rebound cmd_* is the one that runs
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except tuple(kind for kind, _ in _ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
