"""Fully connected stress-classifier networks.

Defines the two network containers, the float ``NetworkModel`` and its
32-bit fixed-point mirror ``FixedPointNet`` (with its ``QFormat``), which
share one set of structural checks, and the text format both serialize to.
Also the operations the rest of the pipeline builds on: the two reference
topologies (the small 5-50-50-3 classifier and the large 100-input
benchmark net), float inference, batch gradient-descent training, and the
target device's memory-footprint model.

Weight layout follows the bias-as-extra-row convention: the connection
matrix from layer l to layer l+1 has shape (size(l) + 1, size(l + 1)) and
its last row holds the biases, as if fed by a constant input of 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .errors import DivergenceError, FixedPointRangeError, ParseError, ShapeError

# Storage costs of the embedded runtime, in bytes. Each neuron is described
# by 4 integers (activation id, index bookkeeping), each weight is a 32-bit
# value, and every layer stores its input/output counts as 2 integers.
BYTES_PER_NEURON = 16
BYTES_PER_WEIGHT = 4
BYTES_PER_LAYER = 8

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


class Activation(Enum):
    LINEAR = "linear"
    TANH = "tanh"


@dataclass(frozen=True)
class LayerSpec:
    """One layer: neuron count (bias excluded) and activation function."""

    size: int
    activation: Activation

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"layer size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class FootprintReport:
    """Byte counts of a network in the embedded runtime's memory layout."""

    neuron_bytes: int
    weight_bytes: int
    layer_bytes: int
    total_bytes: int


@dataclass(frozen=True)
class QFormat:
    """32-bit fixed-point format with ``frac_bits`` fractional bits."""

    frac_bits: int = 16
    TOTAL_BITS: ClassVar[int] = 32

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


@dataclass(frozen=True, eq=False)
class _Network:
    """Layer specs plus one weight matrix per connection, checked and frozen.

    weights[l] has shape ``(layers[l].size + 1, layers[l + 1].size)`` with
    the bias row last. Arrays are copied to ``DTYPE`` and frozen at
    construction; each subclass adds the rule its values must satisfy.
    """

    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    DTYPE: ClassVar[type]

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) < 2:
            raise ShapeError("a network needs at least an input and an output layer")
        if layers[0].activation is not Activation.LINEAR:
            raise ShapeError("input layer activation must be linear")
        if len(self.weights) != len(layers) - 1:
            raise ShapeError(
                f"expected {len(layers) - 1} weight matrices, got {len(self.weights)}"
            )
        frozen = []
        for l, w in enumerate(self.weights):
            w = np.array(w, dtype=self.DTYPE)
            want = (layers[l].size + 1, layers[l + 1].size)
            if w.shape != want:
                raise ShapeError(
                    f"weight matrix {l}: expected shape {want}, got {w.shape}"
                )
            self._check_values(l, w)
            w.setflags(write=False)
            frozen.append(w)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "weights", tuple(frozen))

    def _check_values(self, l: int, w: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(spec.size for spec in self.layers)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @property
    def neuron_count(self) -> int:
        return sum(spec.size for spec in self.layers)

    @property
    def weight_count(self) -> int:
        return sum(w.size for w in self.weights)

    @property
    def n_inputs(self) -> int:
        return self.layers[0].size

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].size


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
    output_activation: Activation = Activation.TANH,
    weights: Sequence[np.ndarray] | None = None,
) -> NetworkModel:
    """Build an MLP with a linear input layer and tanh hidden layers.

    With ``weights=None`` the matrices are drawn uniformly from [-0.5, 0.5]
    using ``seed``, so identical seeds give identical networks.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2:
        raise ShapeError("need at least input and output sizes")
    layers = [LayerSpec(sizes[0], Activation.LINEAR)]
    layers += [LayerSpec(s, Activation.TANH) for s in sizes[1:-1]]
    layers.append(LayerSpec(sizes[-1], output_activation))
    if weights is None:
        weights = _init_weights(sizes, np.random.default_rng(seed))
    return NetworkModel(tuple(layers), tuple(weights))


def build_network_a(seed: int | None = 0) -> NetworkModel:
    """The deployed stress classifier: 5 inputs, two hidden layers of 50,
    3 outputs (one per stress level), tanh throughout.

    108 neurons, 3003 weights.
    """
    return build_mlp([5, 50, 50, 3], seed=seed)


def build_network_b(seed: int | None = 0) -> NetworkModel:
    """The large benchmark net: 100 inputs, 24 hidden layers in widening
    pairs (8, 8, 16, 16, ..., 96, 96), 8 outputs, tanh throughout.

    1356 neurons, 81032 weights.
    """
    hidden = []
    for pair in range(1, 13):
        hidden += [8 * pair, 8 * pair]
    return build_mlp([100] + hidden + [8], seed=seed)


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
    """
    a, single = _input_rows(x, net.n_inputs)
    if not np.isfinite(a).all():
        raise ShapeError("input contains non-finite values")
    for w, spec in zip(net.weights, net.layers[1:]):
        z = (a[:, None, :] @ w[:-1])[:, 0, :] + w[-1]
        a = np.tanh(z) if spec.activation is Activation.TANH else z
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
        self.tanh = [spec.activation is Activation.TANH for spec in net.layers[1:]]
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
            if self.tanh[l]:
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
            if self.tanh[l]:
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
    DivergenceError naming the epoch; ``net`` itself is never changed.
    """
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
    return NetworkModel(net.layers, tuple(batch.weights))


def footprint(net: NetworkModel) -> FootprintReport:
    """Memory footprint of the network in the embedded runtime layout."""
    nb = BYTES_PER_NEURON * net.neuron_count
    wb = BYTES_PER_WEIGHT * net.weight_count
    lb = BYTES_PER_LAYER * net.layer_count
    return FootprintReport(nb, wb, lb, nb + wb + lb)


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
# row-major within each matrix, bias row last. Floats are written at 9
# significant digits, which round-trips text->value->text exactly;
# fixed-point weights are raw integers. The reader is whitespace tolerant
# inside the weight block but strict about the header. Only the stock
# topology (linear inputs, tanh everywhere else) is serializable; the tag
# carries no per-layer activation info.

TAG_FLOAT = "SWNET_FLO_1"
TAG_FIXED = "SWNET_FIX_1"


def _check_serializable(layers: tuple[LayerSpec, ...]) -> None:
    for spec in layers[1:]:
        if spec.activation is not Activation.TANH:
            raise ValueError(
                "only tanh hidden/output layers can be serialized, "
                f"got {spec.activation.name}"
            )


def save_fann(model: _Network) -> str:
    """Render a float or fixed-point network to the text format."""
    fixed = isinstance(model, FixedPointNet)
    _check_serializable(model.layers)
    sizes = " ".join(str(s) for s in model.layer_sizes)
    lines = [
        TAG_FIXED if fixed else TAG_FLOAT,
        f"num_layers={len(model.layers)}",
        f"layer_sizes={sizes}",
    ]
    if fixed:
        lines.append(f"decimal_point={model.qformat.frac_bits}")
        for w in model.weights:
            lines += [" ".join(map(str, row)) for row in w.tolist()]
    else:
        for w in model.weights:
            fmt = " ".join(["%.9g"] * w.shape[1])
            lines += [fmt % tuple(row) for row in w.tolist()]
    return "\n".join(lines) + "\n"


def _header_field(line: str, key: str, lineno: int) -> str:
    prefix = key + "="
    if not line.startswith(prefix):
        raise ParseError(f"expected '{key}=...', got {line!r}", line=lineno)
    return line[len(prefix):]


def _read_weights(
    lines: list[str], start: int, expected: int, fixed: bool
) -> np.ndarray:
    """The ``expected`` weights in ``lines[start:]`` as one int64 or float64
    array.

    The block is split once and converted by one ``np.array`` call. A wrong
    token count, a token numpy rejects, a non-finite float or a fixed-point
    weight outside the 32-bit range sends it to ``_scan_weights``, which
    defines what is accepted and names the line of the first problem, so
    both paths give the same array or the same error.
    """
    tokens = " ".join(lines[start:]).split()
    if len(tokens) == expected:
        try:
            values = np.array(tokens, dtype=np.int64 if fixed else np.float64)
        except (ValueError, OverflowError):
            pass
        else:
            if fixed:
                bad = (values < INT32_MIN) | (values > INT32_MAX)
            else:
                bad = ~np.isfinite(values)
            if not bad.any():
                return values
    return _scan_weights(lines, start, expected, fixed)


def _scan_weights(
    lines: list[str], start: int, expected: int, fixed: bool
) -> np.ndarray:
    """The reference reader behind ``_read_weights``, one ``int()`` or
    ``float()`` per token; raises ``ParseError``, or ``FixedPointRangeError``
    for a fixed-point weight outside the 32-bit range, with a 1-based line."""
    tokens: list[str] = []
    token_lines: list[int] = []
    for off, line in enumerate(lines[start:], start=start + 1):
        for tok in line.split():
            tokens.append(tok)
            token_lines.append(off)
    if len(tokens) < expected:
        raise ParseError(
            f"expected {expected} weights, found {len(tokens)}",
            line=len(lines) or 1,
        )
    if len(tokens) > expected:
        raise ParseError(
            f"expected {expected} weights, found {len(tokens)}",
            line=token_lines[expected],
        )

    values = np.empty(expected, dtype=np.int64 if fixed else np.float64)
    for i, tok in enumerate(tokens):
        try:
            values[i] = int(tok) if fixed else float(tok)
        except (ValueError, OverflowError):
            kind = "integer" if fixed else "number"
            raise ParseError(
                f"weight token {tok!r} is not a valid {kind}",
                line=token_lines[i],
            ) from None
    if not fixed and not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ParseError(
            f"weight token {tokens[bad]!r} is not finite", line=token_lines[bad]
        )
    if fixed:
        outside = np.flatnonzero((values < INT32_MIN) | (values > INT32_MAX))
        if outside.size:
            bad = int(outside[0])
            raise FixedPointRangeError(
                f"line {token_lines[bad]}: weight token {tokens[bad]!r} "
                "is outside the 32-bit range"
            )
    return values


def load_fann(text: str) -> NetworkModel | FixedPointNet:
    """Parse the text format into a NetworkModel or FixedPointNet.

    Raises ParseError (with a 1-based line number) on any structural
    problem: unknown tag, malformed header, bad token, or a weight count
    that does not match the declared topology.
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
    if num_layers < 2:
        raise ParseError(f"need at least 2 layers, got {num_layers}", line=2)

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
    if any(s < 1 for s in sizes):
        raise ParseError("layer sizes must be positive", line=3)

    body_start = 3
    frac_bits = None
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
        if not 1 <= frac_bits <= 30:
            raise ParseError(
                f"decimal_point must be in [1, 30], got {frac_bits}", line=4
            )
        body_start = 4

    expected = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    values = _read_weights(lines, body_start, expected, fixed)

    layers = tuple(
        LayerSpec(s, Activation.LINEAR if i == 0 else Activation.TANH)
        for i, s in enumerate(sizes)
    )
    weights = []
    pos = 0
    for a, b in zip(sizes, sizes[1:]):
        n = (a + 1) * b
        weights.append(values[pos:pos + n].reshape(a + 1, b))
        pos += n

    if fixed:
        return FixedPointNet(layers, tuple(weights), QFormat(frac_bits))
    return NetworkModel(layers, tuple(weights))


def write_fann(model, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(save_fann(model))


def read_fann(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not an ASCII text file") from None
    return load_fann(text)
