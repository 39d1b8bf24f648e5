"""Fully connected stress-classifier networks.

Defines the two network containers, the float ``NetworkModel`` and its
32-bit fixed-point mirror ``FixedPointNet`` (with its ``QFormat``), which
share one set of structural checks, the text format both serialize to, and
``_open_output``, the one way the package writes any file.
A network is its layer sizes and one weight matrix per connection: the
input layer passes its values through, and tanh follows every connection.
Also the operations the rest of the pipeline builds on: the two reference
topologies (the small 5-50-50-3 classifier and the large 100-input
benchmark net), float inference, batch gradient-descent training, and the
target device's memory-footprint model.

Weight layout follows the bias-as-extra-row convention: the connection
matrix from layer l to layer l+1 has shape (size(l) + 1, size(l + 1)) and
its last row holds the biases, as if fed by a constant input of 1.0.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import (
    ActivationOverflowError,
    ConfigError,
    DivergenceError,
    FixedPointRangeError,
    ParseError,
    ShapeError,
)

# Storage costs of the embedded runtime, in bytes. Each neuron is described
# by 4 integers (activation id, index bookkeeping), each weight is a 32-bit
# value, and every layer stores its input/output counts as 2 integers.
BYTES_PER_NEURON = 16
BYTES_PER_WEIGHT = 4
BYTES_PER_LAYER = 8

# The deployed stress classifier (net A) and the large benchmark net (net B)
NETWORK_A_SIZES = (5, 50, 50, 3)
NETWORK_B_SIZES = (100, *(8 * pair for pair in range(1, 13) for _ in range(2)), 8)

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class FootprintReport:
    """Counts and byte counts of a network in the embedded runtime's memory
    layout. Weights include each layer's bias row."""

    neurons: int
    weights: int
    layers: int
    neuron_bytes: int
    weight_bytes: int
    layer_bytes: int
    total_bytes: int


@dataclass(frozen=True)
class QFormat:
    """32-bit fixed-point format with ``frac_bits`` fractional bits."""

    frac_bits: int = 16

    def __post_init__(self):
        if not 1 <= self.frac_bits <= 30:
            raise ValueError(f"frac_bits must be in [1, 30], got {self.frac_bits}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def min_value(self) -> float:
        return INT32_MIN / self.scale

    @property
    def max_value(self) -> float:
        return INT32_MAX / self.scale

    @property
    def resolution(self) -> float:
        return 1.0 / self.scale

    def dequantize(self, q) -> np.ndarray:
        return np.asarray(q, dtype=np.float64) / self.scale


def _layer_sizes(sizes: Sequence[int]) -> tuple[int, ...]:
    """``sizes`` as a tuple, checked: an input and an output layer at least,
    each of one neuron or more."""
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise ShapeError("a network needs at least an input and an output layer")
    if min(sizes) < 1:
        raise ShapeError(f"layer sizes must be >= 1, got {sizes}")
    return sizes


@dataclass(frozen=True, eq=False)
class _Network:
    """Layer sizes plus one weight matrix per connection, checked and frozen.

    Neuron counts exclude the bias. The input layer passes its values
    through and tanh follows every connection.
    weights[l] has shape ``(layer_sizes[l] + 1, layer_sizes[l + 1])`` with
    the bias row last. Arrays are copied to ``DTYPE`` and frozen at
    construction; each subclass adds, as ``_check_values``, the rule its values meet.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    DTYPE: ClassVar[type]

    def __post_init__(self):
        sizes = _layer_sizes(self.layer_sizes)
        if len(self.weights) != len(sizes) - 1:
            raise ShapeError(
                f"expected {len(sizes) - 1} weight matrices, got {len(self.weights)}"
            )
        frozen = []
        for l, w in enumerate(self.weights):
            w = np.array(w, dtype=self.DTYPE)
            want = (sizes[l] + 1, sizes[l + 1])
            if w.shape != want:
                raise ShapeError(
                    f"weight matrix {l}: expected shape {want}, got {w.shape}"
                )
            self._check_values(l, w)
            w.setflags(write=False)
            frozen.append(w)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", tuple(frozen))

    @property
    def layer_count(self) -> int:
        return len(self.layer_sizes)

    @property
    def neuron_count(self) -> int:
        return sum(self.layer_sizes)

    @property
    def weight_count(self) -> int:
        return sum(w.size for w in self.weights)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True, eq=False)
class NetworkModel(_Network):
    """Immutable float MLP; every weight is a finite float64."""

    DTYPE: ClassVar[type] = np.float64

    def _check_values(self, l: int, w: np.ndarray) -> None:
        if not np.isfinite(w).all():
            raise ShapeError(f"weight matrix {l} contains non-finite values")


@dataclass(frozen=True, eq=False)
class FixedPointNet(_Network):
    """Quantized mirror of a NetworkModel.

    ``weights`` holds int64 arrays whose values fit the 32-bit range of
    ``qformat`` and whose columns each sum to less than 2^52 in absolute
    value, which keeps the integer kernel's float64 limbs exact.
    ``saturated_weights`` counts weights clamped during
    quantization (None for nets loaded from files, where the original float
    values are unknown).
    """

    qformat: QFormat
    saturated_weights: int | None = field(default=None, kw_only=True)
    DTYPE: ClassVar[type] = np.int64

    def _check_values(self, l: int, w: np.ndarray) -> None:
        if w.min(initial=0) < INT32_MIN or w.max(initial=0) > INT32_MAX:
            raise FixedPointRangeError("weight outside the 32-bit range")
        if np.abs(w).sum(axis=0).max(initial=0) >= 2**52:
            raise FixedPointRangeError(
                f"weight matrix {l}: a column's absolute sum reaches 2^52"
            )


def _init_weights(sizes: Sequence[int], rng: np.random.Generator) -> list[np.ndarray]:
    # Uniform in [-0.5, 0.5], the usual small symmetric init for tanh nets.
    return [
        rng.uniform(-0.5, 0.5, size=(sizes[l] + 1, sizes[l + 1]))
        for l in range(len(sizes) - 1)
    ]


def build_mlp(
    sizes: Sequence[int],
    seed: int | None = 0,
    weights: Sequence[np.ndarray] | None = None,
) -> NetworkModel:
    """Build an MLP of the given layer sizes, tanh after every connection.

    With ``weights=None`` the matrices are drawn uniformly from [-0.5, 0.5]
    using ``seed``, so identical seeds give identical networks. A negative
    ``seed`` raises ``ConfigError``.
    """
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must not be negative, got {seed}")
    sizes = [int(s) for s in sizes]
    if weights is None:
        weights = _init_weights(sizes, np.random.default_rng(seed))
    return NetworkModel(tuple(sizes), tuple(weights))


def build_network_a(seed: int | None = 0) -> NetworkModel:
    """The deployed stress classifier: 5 inputs, two hidden layers of 50,
    3 outputs (one per stress level), tanh throughout.

    108 neurons, 3003 weights.
    """
    return build_mlp(NETWORK_A_SIZES, seed=seed)


def build_network_b(seed: int | None = 0) -> NetworkModel:
    """The large benchmark net: 100 inputs, 24 hidden layers in widening
    pairs (8, 8, 16, 16, ..., 96, 96), 8 outputs, tanh throughout.

    1356 neurons, 81032 weights.
    """
    return build_mlp(NETWORK_B_SIZES, seed=seed)


def _input_rows(x, n_inputs: int) -> tuple[np.ndarray, bool]:
    """``x`` as a float64 ``(rows, n_inputs)`` matrix, and whether it was a
    single row. A single row is a batch of one."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim < 2
    rows = x.reshape(1, -1) if single else x
    if rows.ndim != 2:
        raise ShapeError(f"expected a row or a (rows, inputs) matrix, got shape {x.shape}")
    if rows.shape[1] != n_inputs:
        raise ShapeError(f"expected {n_inputs} inputs, got {rows.shape[1]}")
    return rows, single


def infer_float(net: NetworkModel, x) -> np.ndarray:
    """Forward pass in float64. Returns the output-layer activations.

    ``x`` is one row of shape ``(inputs,)`` or a matrix of shape
    ``(rows, inputs)``; the result is ``(outputs,)`` or ``(rows, outputs)``.
    Each row goes through its own vector-matrix product, so a row's result
    is bit-identical whether it is passed alone or inside a matrix (a plain
    2-D matmul may round differently in the last place).

    A finite input whose weighted sum overflows (inputs near 1e308 do) raises
    ``ActivationOverflowError`` naming its row, instead of a numpy warning
    and a label computed from an infinity.
    """
    a, single = _input_rows(x, net.n_inputs)
    if not np.isfinite(a).all():
        raise ShapeError("input contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, w in enumerate(net.weights, start=1):
            z = (a[:, None, :] @ w[:-1])[:, 0, :] + w[-1]
            finite = np.isfinite(z)
            if not finite.all():
                raise ActivationOverflowError(int(np.argmin(finite)) // z.shape[1], layer)
            a = np.tanh(z)
    return a[0] if single else a


def _stack_dataset(
    net: NetworkModel, dataset: Iterable[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(dataset)
    if not pairs:
        raise ShapeError("dataset is empty")
    xs = np.asarray([np.asarray(p[0], dtype=np.float64).reshape(-1) for p in pairs])
    ts = np.asarray([np.asarray(p[1], dtype=np.float64).reshape(-1) for p in pairs])
    if xs.shape[1] != net.n_inputs:
        raise ShapeError(f"expected {net.n_inputs} inputs, got {xs.shape[1]}")
    if ts.shape[1] != net.n_outputs:
        raise ShapeError(f"expected {net.n_outputs} targets, got {ts.shape[1]}")
    return xs, ts


class _Pass:
    """Batch forward and backward passes of one network over one dataset, on
    buffers allocated once.

    The weights are per-layer ``(size + 1, next)`` views, bias row last, of
    one flat float64 buffer, and the gradients the same views of a second
    one, so a training step is one in-place update of the flat buffer. Each
    layer's input is a ``(rows, size + 1)`` buffer whose last column stays
    1.0: one ``ext.T @ delta`` then gives the weight and bias gradients in
    one matmul, with the same values as extending the input afresh.
    Elementwise work runs on contiguous buffers, which numpy walks in one
    loop rather than one per row.
    """

    def __init__(self, net: NetworkModel, dataset: Iterable[tuple]):
        xs, self.ts = _stack_dataset(net, dataset)
        rows = xs.shape[0]
        self.flat = np.concatenate([w.ravel() for w in net.weights])
        self.grad_flat = np.empty_like(self.flat)
        self.weights, self.grads = [], []
        pos = 0
        for w in net.weights:
            self.weights.append(self.flat[pos:pos + w.size].reshape(w.shape))
            self.grads.append(self.grad_flat[pos:pos + w.size].reshape(w.shape))
            pos += w.size
        self.ext = [np.ones((rows, size + 1)) for size in net.layer_sizes[:-1]]
        self.inputs = [e[:, :-1] for e in self.ext]
        self.inputs[0][...] = xs
        # acts[l] is the output of connection l, computed in place of its
        # pre-activation; deltas[l] is dLoss/d(pre-activation) there
        self.acts = [np.empty((rows, size)) for size in net.layer_sizes[1:]]
        self.deltas = [np.empty_like(a) for a in self.acts]

    def loss(self) -> float:
        """Forward pass over the dataset; returns the mean squared error and
        leaves the output error ``out - ts`` in ``deltas[-1]``."""
        for l, w in enumerate(self.weights):
            a = np.matmul(self.inputs[l], w[:-1], out=self.acts[l])
            a += w[-1]
            np.tanh(a, out=a)
            if l + 1 < len(self.inputs):
                self.inputs[l + 1][...] = a
        err = np.subtract(self.acts[-1], self.ts, out=self.deltas[-1])
        return float(np.mean(err**2))

    def backward(self) -> None:
        """Fills ``grads`` with dLoss/dW, after ``loss`` on the same weights.
        Overwrites ``acts``, which the next ``loss`` computes afresh."""
        delta = self.deltas[-1]
        delta *= 2.0
        delta /= self.ts.size
        for l in range(len(self.weights) - 1, -1, -1):
            a = self.acts[l]
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            delta *= a
            np.matmul(self.ext[l].T, delta, out=self.grads[l])
            if l > 0:
                delta = np.matmul(delta, self.weights[l][:-1].T, out=self.deltas[l - 1])


def mse_loss(net: NetworkModel, dataset: Iterable[tuple]) -> float:
    """Mean squared error over all samples and output units."""
    return _Pass(net, dataset).loss()


def mse_gradients(net: NetworkModel, dataset: Iterable[tuple]) -> list[np.ndarray]:
    """Analytic dLoss/dW for every connection matrix (bias row included)."""
    batch = _Pass(net, dataset)
    batch.loss()
    batch.backward()
    return batch.grads


def train(
    net: NetworkModel,
    dataset: Iterable[tuple],
    epochs: int,
    learning_rate: float,
) -> NetworkModel:
    """Plain batch gradient descent on MSE; returns the updated network.

    The step size is fixed, so the loss is not guaranteed monotone. A
    non-finite loss, or a non-finite weight after a step, aborts with a
    DivergenceError naming the epoch; ``net`` itself is never changed. A
    negative ``epochs`` or a non-finite ``learning_rate`` raises
    ``ConfigError`` before any step.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must not be negative, got {epochs}")
    if not math.isfinite(learning_rate):
        raise ConfigError(f"learning_rate must be finite, got {learning_rate}")
    batch = _Pass(net, dataset)
    for epoch in range(int(epochs)):
        loss = batch.loss()
        if not np.isfinite(loss):
            raise DivergenceError(
                f"training diverged: non-finite loss at epoch {epoch}", epoch=epoch
            )
        batch.backward()
        batch.grad_flat *= learning_rate
        batch.flat -= batch.grad_flat
        if not np.isfinite(batch.flat).all():
            # tanh keeps the loss bounded, so a blow-up shows in the
            # weights first (overflow on an oversized step)
            raise DivergenceError(
                f"training diverged: non-finite weights at epoch {epoch}", epoch=epoch
            )
    return NetworkModel(net.layer_sizes, tuple(batch.weights))


def footprint_of_sizes(sizes: Sequence[int]) -> FootprintReport:
    """Memory footprint of an MLP with these layer sizes in the embedded
    runtime layout, counted from the sizes alone: no weight is built."""
    sizes = _layer_sizes([int(s) for s in sizes])
    neurons = sum(sizes)
    weights = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    nb = BYTES_PER_NEURON * neurons
    wb = BYTES_PER_WEIGHT * weights
    lb = BYTES_PER_LAYER * len(sizes)
    return FootprintReport(neurons, weights, len(sizes), nb, wb, lb, nb + wb + lb)


def footprint(net: NetworkModel) -> FootprintReport:
    """Memory footprint of the network in the embedded runtime layout."""
    return footprint_of_sizes(net.layer_sizes)


# ---------------------------------------------------------------------------
# Text serialization.
#
# The on-disk format is a small header followed by the weight matrices:
#
#     SWNET_FLO_1                 (or SWNET_FIX_1 for fixed point)
#     num_layers=4
#     layer_sizes=5 50 50 3
#     decimal_point=16            (fixed point only)
#     <weights>
#
# Weights appear in connection-layer order (inputs->first hidden first),
# row-major within each matrix, one line per source neuron, bias row last.
# Floats are written at 9 significant digits, which round-trips
# text->value->text exactly; fixed-point weights are raw integers. The
# reader parses that layout one matrix per numpy call and scans any other
# token by token: it is whitespace tolerant inside the weight block but
# strict about the header. The format carries no activation: tanh follows
# every connection.

TAG_FLOAT = "SWNET_FLO_1"
TAG_FIXED = "SWNET_FIX_1"


def save_fann(model: _Network) -> str:
    """Render a float or fixed-point network to the text format."""
    fixed = isinstance(model, FixedPointNet)
    sizes = " ".join(str(s) for s in model.layer_sizes)
    lines = [
        TAG_FIXED if fixed else TAG_FLOAT,
        f"num_layers={model.layer_count}",
        f"layer_sizes={sizes}",
    ]
    if fixed:
        lines.append(f"decimal_point={model.qformat.frac_bits}")
    parts = ["\n".join(lines) + "\n"]
    # one text row per source neuron, each matrix spelled by one template
    spec = "%d" if fixed else "%.9g"
    for w in model.weights:
        row = " ".join([spec] * w.shape[1]) + "\n"
        parts.append(row * w.shape[0] % tuple(w.ravel().tolist()))
    return "".join(parts)


def _header_field(line: str, key: str, lineno: int) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ParseError(f"expected '{key}=...', got {line!r}", line=lineno)
    return line[len(prefix):]


def _read_rows(
    lines: list[str], start: int, sizes: Sequence[int], dtype: type
) -> np.ndarray | None:
    """The weights as one flat array when ``lines[start:]`` holds each
    matrix as its own rows, one line per source neuron as ``save_fann``
    writes them, and every line parses; None otherwise.

    Each matrix goes through one ``np.loadtxt`` call, and a numpy warning
    counts as a failure.
    """
    if len(lines) - start != sum(a + 1 for a in sizes[:-1]):
        return None
    flat = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in zip(sizes, sizes[1:]):
            try:
                w = np.loadtxt(lines[start:start + a + 1], dtype=dtype,
                               comments=None, ndmin=2)
            except (ValueError, OverflowError, Warning):
                return None
            if w.shape != (a + 1, b):
                return None
            flat.append(w.ravel())
            start += a + 1
    return np.concatenate(flat)


def _scan_weights(
    lines: list[str], start: int, expected: int, fixed: bool
) -> np.ndarray:
    """The reference reader, one ``int()`` or ``float()`` per token, that
    ``load_fann`` calls on a layout ``_read_rows`` does not parse and on a
    value the network type refuses; raises ``ParseError``, or
    ``FixedPointRangeError`` for a weight outside the 32-bit range, with a
    1-based line. The count, the syntax and the values are checked in that
    order, each over the whole body, one line at a time: no token is kept."""
    body = range(start, len(lines))
    count, over = 0, None
    for i in body:
        count += len(lines[i].split())
        if over is None and count > expected:
            over = i + 1
    if count != expected:
        raise ParseError(f"expected {expected} weights, found {count}",
                         line=over or len(lines) or 1)

    values = np.empty(expected, dtype=np.int64 if fixed else np.float64)
    parse, kind = (int, "integer") if fixed else (float, "number")
    n = 0
    for i in body:
        for tok in lines[i].split():
            try:
                values[n] = parse(tok)
            except (ValueError, OverflowError):
                raise ParseError(f"weight token {tok!r} is not a valid {kind}",
                                 line=i + 1) from None
            n += 1
    bad = ((values < INT32_MIN) | (values > INT32_MAX)) if fixed else ~np.isfinite(values)
    if not bad.any():
        return values
    n = int(np.argmax(bad))
    for i in body:  # the token and line of value n
        toks = lines[i].split()
        if n < len(toks):
            break
        n -= len(toks)
    if fixed:
        raise FixedPointRangeError(
            f"line {i + 1}: weight token {toks[n]!r} is outside the 32-bit range")
    raise ParseError(f"weight token {toks[n]!r} is not finite", line=i + 1)


def load_fann(text: str) -> NetworkModel | FixedPointNet:
    """Parse the text format into a NetworkModel or FixedPointNet.

    Raises ParseError (with a 1-based line number) on any structural
    problem: unknown tag, malformed header, bad token, or a weight count
    that does not match the declared topology. ``_layer_sizes``, ``QFormat``
    and the network types state the size, format and value rules; this
    reader adds the line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty model file")
    tag = lines[0].strip()
    if tag not in (TAG_FLOAT, TAG_FIXED):
        raise ParseError(f"unrecognized format tag {tag!r}", line=1)
    fixed = tag == TAG_FIXED

    if len(lines) < 3:
        raise ParseError("truncated header", line=len(lines))
    raw = _header_field(lines[1].strip(), "num_layers", 2)
    try:
        num_layers = int(raw)
    except ValueError:
        raise ParseError(f"num_layers is not an integer: {raw!r}", line=2) from None

    raw = _header_field(lines[2].strip(), "layer_sizes", 3)
    try:
        sizes = [int(tok) for tok in raw.split()]
    except ValueError:
        raise ParseError(
            f"layer_sizes has a non-integer entry: {raw!r}", line=3
        ) from None
    if len(sizes) != num_layers:
        raise ParseError(
            f"layer_sizes lists {len(sizes)} entries, num_layers says {num_layers}",
            line=3,
        )
    try:
        sizes = _layer_sizes(sizes)
    except ShapeError as exc:
        raise ParseError(str(exc), line=3) from None

    body_start = 3
    if fixed:
        if len(lines) < 4:
            raise ParseError("missing decimal_point line", line=len(lines))
        raw = _header_field(lines[3].strip(), "decimal_point", 4)
        try:
            frac_bits = int(raw)
        except ValueError:
            raise ParseError(
                f"decimal_point is not an integer: {raw!r}", line=4
            ) from None
        try:
            qformat = QFormat(frac_bits)
        except ValueError as exc:
            raise ParseError(str(exc), line=4) from None
        body_start = 4

    expected = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    values = _read_rows(lines, body_start, sizes, np.int64 if fixed else np.float64)
    if values is None:
        values = _scan_weights(lines, body_start, expected, fixed)
    weights, pos = [], 0
    for a, b in zip(sizes, sizes[1:]):
        weights.append(values[pos:pos + (a + 1) * b].reshape(a + 1, b))
        pos += (a + 1) * b

    try:
        if fixed:
            return FixedPointNet(sizes, tuple(weights), qformat)
        return NetworkModel(sizes, tuple(weights))
    except (ShapeError, FixedPointRangeError) as exc:
        refused = exc
    # the scan names the token at fault and its line; when no token is (a
    # column reaching 2^52), the type's own error stands
    _scan_weights(lines, body_start, expected, fixed)
    raise refused


@contextlib.contextmanager
def _open_output(path):
    """A binary handle that writes ``path`` over its old bytes, cut to length.

    Every file the package writes goes through here: model files, the
    ``.norm.json`` sidecars, ``-o`` and ``--json -o`` outputs and
    ``--soc-out``. An existing file is not truncated on open: the new bytes
    go over its pages, because truncating a 47 MB ``--soc-out`` file on open
    made each rerun about 50 ms slower on ext4 (``BENCH_25.json``). On exit,
    after an error too, the handle is flushed and a regular file is cut at
    the offset actually written, so it holds exactly the bytes written and
    nothing of the old file. A pipe or a device such as ``/dev/null`` is not
    cut.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                fd = fh.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_fann(model, path) -> None:
    with _open_output(path) as fh:
        fh.write(save_fann(model).encode("ascii"))


def read_fann(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not an ASCII text file") from None
    return load_fann(text)
