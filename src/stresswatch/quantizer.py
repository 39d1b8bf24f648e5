"""Fixed-point quantization and saturating integer inference.

The embedded target runs the classifier in 32-bit fixed point. This module
mirrors that kernel bit-exactly in pure integer arithmetic:

* weights and activations share one Q format (32 total bits, configurable
  fraction; default Q16.16),
* per-neuron products are accumulated wide, rescaled once with
  round-half-away-from-zero, and saturated into the 32-bit range,
* tanh is a 257-knot piecewise-linear table over [-4, 4], odd-symmetric by
  construction, clamped to +/-(1 - 2^-frac_bits) outside.

Nothing in this path depends on float rounding, so results are reproducible
across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import FixedPointRangeError
from .nn_core import Activation, LayerSpec, NetworkModel, _input_rows

LUT_KNOTS = 257          # over [-4, 4] -> knot spacing 1/32
LUT_X_MAX = 4.0
_KNOTS_PER_UNIT = 32
_CENTER = (LUT_KNOTS - 1) // 2

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


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


@dataclass(frozen=True)
class TanhTable:
    """Quantized tanh knots at spacing 1/32 over [-4, 4], mirrored about 0."""

    frac_bits: int
    values: np.ndarray  # int64, LUT_KNOTS entries

    @property
    def saturation(self) -> int:
        # One ULP below 1.0 so activations stay strictly inside (-1, 1).
        return (1 << self.frac_bits) - 1


@dataclass(frozen=True)
class FixedPointNet:
    """Quantized mirror of a NetworkModel.

    ``weights`` holds int64 arrays whose values fit the 32-bit range of
    ``qformat``. ``saturated_weights`` counts weights clamped during
    quantization (None for nets loaded from files, where the original float
    values are unknown).
    """

    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    qformat: QFormat
    tanh_lut: TanhTable
    saturated_weights: int | None = None

    def __post_init__(self):
        frozen = []
        for w in self.weights:
            w = np.array(w, dtype=np.int64)
            if w.min(initial=0) < INT32_MIN or w.max(initial=0) > INT32_MAX:
                raise FixedPointRangeError("weight outside the 32-bit range")
            w.setflags(write=False)
            frozen.append(w)
        object.__setattr__(self, "weights", tuple(frozen))

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(spec.size for spec in self.layers)

    @property
    def weight_count(self) -> int:
        return int(sum(w.size for w in self.weights))

    @property
    def neuron_count(self) -> int:
        return int(sum(self.layer_sizes))

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @property
    def n_inputs(self) -> int:
        return self.layers[0].size

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].size


def build_tanh_lut(fmt: QFormat) -> TanhTable:
    """Tabulate round-to-nearest tanh at the 257 knots.

    Only the non-negative half is computed; the negative half is its mirror
    image, which makes eval(-x) == -eval(x) exact by construction.
    """
    scale = fmt.scale
    values = np.zeros(LUT_KNOTS, dtype=np.int64)
    for k in range(_CENTER + 1):
        q = int(math.floor(math.tanh(k / _KNOTS_PER_UNIT) * scale + 0.5))
        values[_CENTER + k] = q
        values[_CENTER - k] = -q
    values.setflags(write=False)
    return TanhTable(fmt.frac_bits, values)


def tanh_lut_eval(x, lut: TanhTable):
    """Piecewise-linear tanh on fixed-point values.

    Interpolates between adjacent knots for |x| < 4.0 and returns the
    saturation value +/-(scale - 1) for |x| >= 4.0. All arithmetic is
    integer; accepts a scalar or an array and returns the same kind.
    """
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=np.int64))
    scale = 1 << lut.frac_bits
    half = scale >> 1
    x_sat = 4 * scale
    sign = np.where(xa < 0, -1, 1)
    ax = np.abs(xa)
    clamped = ax >= x_sat
    ax_in = np.minimum(ax, x_sat - 1)
    t = ax_in * _KNOTS_PER_UNIT
    idx = t // scale                      # 0..127 inside the table
    r = t - idx * scale
    y_lo = lut.values[_CENTER + idx]
    y_hi = lut.values[_CENTER + idx + 1]
    # Knot values are <= scale, so num stays far below 2^63 for frac <= 30.
    num = y_lo * (scale - r) + y_hi * r
    y = (num + half) // scale
    y = sign * np.where(clamped, lut.saturation, y)
    return int(y[0]) if scalar else y


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.trunc(v + np.copysign(0.5, v))


def quantize(net: NetworkModel, fmt: QFormat = QFormat()) -> FixedPointNet:
    """Round-to-nearest quantization of every weight, saturating at the
    32-bit range. Saturation is counted, not fatal."""
    scale = fmt.scale
    q_weights = []
    saturated = 0
    for w in net.weights:
        v = _round_half_away(w * scale)
        saturated += int(np.count_nonzero((v < INT32_MIN) | (v > INT32_MAX)))
        v = np.clip(v, INT32_MIN, INT32_MAX)
        q_weights.append(v.astype(np.int64))
    return FixedPointNet(
        layers=net.layers,
        weights=tuple(q_weights),
        qformat=fmt,
        tanh_lut=build_tanh_lut(fmt),
        saturated_weights=saturated,
    )


def dequantize_network(fp: FixedPointNet) -> NetworkModel:
    """Float network with the quantized weight values (for comparisons)."""
    return NetworkModel(
        fp.layers, tuple(fp.qformat.dequantize(w) for w in fp.weights)
    )


def _accumulate(a_ext: np.ndarray, w: np.ndarray, half: int) -> np.ndarray:
    """Wide dot products of the bias-extended activation rows with w.

    Uses one int64 matmul when the worst-case |accumulator| + half over the
    whole block provably fits; otherwise the block goes through a matmul of
    exact Python integers, so saturation is always a clamp, never a
    wraparound.
    """
    col_bound = int(np.abs(w).sum(axis=0).max())
    a_bound = int(np.abs(a_ext).max(initial=0))
    if col_bound * a_bound + half < 2**63:
        return a_ext @ w
    return a_ext.astype(object) @ w.astype(object)


def _rescale_saturate(acc: np.ndarray, scale: int, half: int) -> np.ndarray:
    """Round-half-away-from-zero rescale by the format scale, then clamp
    into the 32-bit range."""
    q = np.where(acc >= 0, (acc + half) // scale, -((-acc + half) // scale))
    return np.clip(q, INT32_MIN, INT32_MAX).astype(np.int64, copy=False)


def quantize_inputs(x, fmt: QFormat) -> np.ndarray:
    """Quantize an input vector, raising if any value falls outside the
    representable range of the format."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.isfinite(x).all():
        raise FixedPointRangeError("input contains non-finite values")
    v = _round_half_away(x * fmt.scale)
    if (v < INT32_MIN).any() or (v > INT32_MAX).any():
        bad = x[(v < INT32_MIN) | (v > INT32_MAX)][0]
        raise FixedPointRangeError(
            f"input {bad!r} is outside the representable range "
            f"[{fmt.min_value}, {fmt.max_value}]"
        )
    return v.astype(np.int64)


def infer_fixed(fp: FixedPointNet, x) -> np.ndarray:
    """Forward pass entirely in integer arithmetic; result dequantized.

    ``x`` is one row of shape ``(inputs,)`` or a matrix of shape
    ``(rows, inputs)``; the result is ``(outputs,)`` or ``(rows, outputs)``.
    Per connection layer: bias-extended activations (bias input is 1.0 in
    fixed point) are accumulated wide, rescaled once per neuron, saturated,
    then passed through the tanh table (or left as-is for linear layers).
    """
    rows, single = _input_rows(x, fp.n_inputs)
    fmt = fp.qformat
    scale = fmt.scale
    half = scale >> 1
    a = quantize_inputs(rows, fmt).reshape(rows.shape)
    bias = np.full((a.shape[0], 1), scale, dtype=np.int64)
    for w, spec in zip(fp.weights, fp.layers[1:]):
        acc = _accumulate(np.hstack((a, bias)), w, half)
        z = _rescale_saturate(acc, scale, half)
        a = tanh_lut_eval(z, fp.tanh_lut) if spec.activation is Activation.TANH else z
    out = a / scale
    return out[0] if single else out
