"""Fixed-point quantization and saturating integer inference.

The embedded target runs the classifier in 32-bit fixed point. This module
mirrors that kernel bit-exactly:

* weights and activations share one Q format (32 total bits, configurable
  fraction; default Q16.16),
* per-neuron products are accumulated wide, rescaled once with
  round-half-away-from-zero, and saturated into the 32-bit range,
* tanh is a 257-knot piecewise-linear table over [-4, 4], odd-symmetric by
  construction, clamped to +/-(1 - 2^-frac_bits) outside.

The products are summed by float64 matmuls on BLAS and combined in int64,
the kernel's one integer width. The activations are split into limbs of
53 - bits(col_bound) bits (one limb at Q16.16), so every product and
partial sum is an integer below 2^53, exact in float64; ``FixedPointNet``
rejects a weight column whose absolute sum reaches 2^52, so limbs are at
least one bit wide. The int64 sum is exact mod 2^64. Where a block's
worst-case accumulator could reach 2^63, a plain float64 matmul, within
2^60 of the true sums, finds the entries past 2^62, which saturate; that
margin keeps float rounding from deciding any result. Rescale and table
are integer shifts and masks, so results are reproducible across
platforms and equal an unbounded-integer evaluation bit for bit. The net
containers, ``QFormat`` and ``FixedPointNet``, are imported from ``nn_core``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FixedPointRangeError
from .nn_core import (
    INT32_MAX,
    INT32_MIN,
    FixedPointNet,
    NetworkModel,
    QFormat,
    _input_rows,
)

LUT_KNOTS = 257          # over [-4, 4] -> knot spacing 1/32
LUT_X_MAX = 4.0
_KNOTS_PER_UNIT = 32
_CENTER = (LUT_KNOTS - 1) // 2


@dataclass(frozen=True, eq=False)
class TanhTable:
    """Quantized tanh knots at spacing 1/32 over [-4, 4], mirrored about 0."""

    frac_bits: int
    values: np.ndarray  # int64, LUT_KNOTS entries

    @property
    def saturation(self) -> int:
        # One ULP below 1.0 so activations stay strictly inside (-1, 1).
        return (1 << self.frac_bits) - 1


@functools.lru_cache(maxsize=None)
def build_tanh_lut(fmt: QFormat) -> TanhTable:
    """Tabulate round-to-nearest tanh at the 257 knots.

    Only the non-negative half is computed; the negative half is its mirror
    image, which makes eval(-x) == -eval(x) exact by construction. The table
    depends on ``fmt.frac_bits`` alone, so it is built once per format and
    the read-only result is shared.
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
    integer and branch-free: the sign is a mask, the knot index and the
    remainder are a shift and a mask of |x| * 32, and the rounding shift
    floors a non-negative numerator. Accepts a scalar or an array and
    returns the same kind.
    """
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=np.int64))
    f = lut.frac_bits
    scale = 1 << f
    x_sat = 4 * scale
    # In-place steps on a few block-sized buffers: fresh arrays at this size
    # cost more in page faults than the arithmetic does.
    s = xa >> 63                          # 0 or -1
    t = xa ^ s
    t -= s                                # |x|
    clamped = t >= x_sat
    np.minimum(t, x_sat - 1, out=t)
    t *= _KNOTS_PER_UNIT
    idx = t >> f                          # 0..127 inside the table
    t &= scale - 1                        # remainder r
    knots = lut.values[_CENTER:]
    y = knots.take(idx)
    idx += 1
    d = knots.take(idx)
    # y * (scale - r) + y_next * r; knot values are <= scale, so this stays
    # far below 2^63 for frac <= 30, and it is never negative.
    d -= y
    d *= t
    y <<= f
    y += d
    y += scale >> 1
    y >>= f
    np.putmask(y, clamped, lut.saturation)
    y ^= s
    y -= s
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
        layer_sizes=net.layer_sizes,
        weights=tuple(q_weights),
        qformat=fmt,
        saturated_weights=saturated,
    )


def dequantize_network(fp: FixedPointNet) -> NetworkModel:
    """Float network with the quantized weight values (for comparisons)."""
    return NetworkModel(
        fp.layer_sizes, tuple(fp.qformat.dequantize(w) for w in fp.weights)
    )


def _accumulate_rescale(a_ext: np.ndarray, w: np.ndarray, frac_bits: int) -> np.ndarray:
    """Dot products of the bias-extended activation rows with w, rounded
    half away from zero by 2^frac_bits and saturated into the 32-bit range.

    The activations are split into limbs of k = 53 - bits(col_bound) bits
    (k >= 1 by ``FixedPointNet``'s column rule): the top limb by an
    arithmetic shift (at most 2^k in magnitude), the lower ones by a mask
    (below 2^k). Each limb's float64 matmul is exact, and the int64 shifts
    that combine them wrap modulo 2^64, so ``acc`` is exact mod 2^64 and
    exact outright when the block bound fits int64. Past that bound, a plain
    float64 matmul is within n * 2^-53 * |a| @ |w| < 2^60 of the true sum
    for n < 2^30 inputs of 32 bits: an entry it puts at 2^62 or more has
    |acc| > 2^61 >= 2^(31 + frac_bits) and saturates toward its sign, and
    every other entry has |acc| + half < 2^63. The rescale rounds the
    magnitude with one shift and puts the sign back by a mask, in place.
    """
    half = (1 << frac_bits) >> 1
    col_bound = int(np.abs(w).sum(axis=0).max())
    a_bound = max(int(a_ext.max(initial=0)), -int(a_ext.min(initial=0)))
    k = 53 - col_bound.bit_length()
    wf = w.astype(np.float64)
    shift = (max(a_bound.bit_length(), 1) - 1) // k * k  # top limb offset
    limb = a_ext >> shift if shift else a_ext
    acc = (limb.astype(np.float64) @ wf).astype(np.int64)
    while shift:
        shift -= k
        limb = (a_ext >> shift) & ((1 << k) - 1)
        acc <<= k
        acc += (limb.astype(np.float64) @ wf).astype(np.int64)
    s = acc >> 63                         # 0 or -1
    acc ^= s
    acc -= s
    acc += half
    acc >>= frac_bits
    acc ^= s
    acc -= s
    np.clip(acc, INT32_MIN, INT32_MAX, out=acc)
    if col_bound * a_bound + half >= 2**63:  # acc may have wrapped
        est = a_ext.astype(np.float64) @ wf
        sat = np.abs(est) >= 2.0**62
        acc[sat] = np.clip(est[sat], INT32_MIN, INT32_MAX)
    return acc


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
    then passed through the tanh table.
    """
    rows, single = _input_rows(x, fp.n_inputs)
    fmt = fp.qformat
    scale = fmt.scale
    lut = build_tanh_lut(fmt)
    a = quantize_inputs(rows, fmt).reshape(rows.shape)
    bias = np.full((a.shape[0], 1), scale, dtype=np.int64)
    for w in fp.weights:
        z = _accumulate_rescale(np.hstack((a, bias)), w, fmt.frac_bits)
        a = tanh_lut_eval(z, lut)
    out = a / scale
    return out[0] if single else out
