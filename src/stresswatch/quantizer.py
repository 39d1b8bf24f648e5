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
margin keeps float rounding from deciding any result.

Each layer after the accumulate is one fused pass, as in PULP-NN's kernels,
where requantization and activation share a loop. The sign is taken once,
as a mask. The magnitude is rescaled by one rounding shift,
``(|acc| + half) >> f``, and capped first at the 32-bit bound of its sign
(``INT32_MAX - s``; it binds before the 4.0 clamp only at 29 and 30
fraction bits), then at 4.0. The table is read as one base and one slope
gather, ``y0[i] + ((dd[i] * r + half) >> f)``, which equals the two-knot
interpolation exactly; slot 128 holds the saturation value with slope 0,
so the clamp needs no mask. The sign is put back once, and the result is
copied into the next layer's input buffer. Every step is an integer
shift, mask or gather, so results are reproducible across platforms and
equal an unbounded-integer evaluation bit for bit. The net containers,
``QFormat`` and ``FixedPointNet``, are imported from ``nn_core``.
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

    @functools.cached_property
    def base_slope(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-negative half as ``(y0, dd)``: knot ``i`` and the step to
        knot ``i + 1`` for ``i`` in 0..127, and slot 128 holding the
        saturation value with step 0. Derived once per table."""
        knots = self.values[_CENTER:]
        y0 = np.append(knots[:-1], self.saturation)
        dd = np.append(np.diff(knots), 0)
        return y0, dd


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


def tanh_lut_eval(x, lut: TanhTable, *, shift: int = 0):
    """Piecewise-linear tanh on fixed-point values.

    Interpolates between adjacent knots for |x| < 4.0 and returns the
    saturation value +/-(scale - 1) for |x| >= 4.0. All arithmetic is
    integer and branch-free: the sign is taken once as a mask, the knot
    index and the remainder are a shift and a mask of |x| * 32, and the
    rounding shift floors a non-negative numerator. Accepts a scalar or an
    array and returns the same kind.

    The magnitude is capped at 4.0, where slot 128 of ``lut.base_slope``
    yields the saturation value, so the clamp needs no mask. Between knots
    the interpolation ``(y * 2^f + d * r + half) >> f`` of the knot ``y``,
    the step ``d`` and the remainder ``r`` equals ``y + ((d * r + half) >> f)``
    exactly, as ``y * 2^f`` is a multiple of 2^f: one base and one slope
    gather.

    With ``shift`` > 0, ``x`` is a layer's accumulator at 2^shift times the
    table's scale: its magnitude is first rounded half away from zero by
    2^shift and saturated into the 32-bit range of its sign, so the layer's
    one rescale shares the table's sign and loop.
    """
    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=np.int64))
    f = lut.frac_bits
    scale = 1 << f
    s = xa >> 63
    mag = np.abs(xa)
    if shift:
        mag += (1 << shift) >> 1
        mag >>= shift
        # the 32-bit cap binds before the 4.0 clamp only past 28 fraction bits
        if 4 * scale > INT32_MAX:
            np.minimum(mag, INT32_MAX - s, out=mag)
    y0, dd = lut.base_slope
    np.minimum(mag, 4 * scale, out=mag)
    mag *= _KNOTS_PER_UNIT
    idx = mag >> f                        # 0..128
    mag &= scale - 1                      # remainder r
    y = y0.take(idx)
    d = dd.take(idx)
    # a knot step is about scale / 32 and r is below scale: far below 2^63
    d *= mag
    d += scale >> 1
    d >>= f
    y += d
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


def _accumulate(a_ext: np.ndarray, w: np.ndarray, frac_bits: int) -> np.ndarray:
    """Dot products of the bias-extended activation rows with w, in int64:
    exact, or +/-2^62 where the true sum saturates any 32-bit rescale by
    2^frac_bits.

    The activations are split into limbs of k = 53 - bits(col_bound) bits
    (k >= 1 by ``FixedPointNet``'s column rule): the top limb by an
    arithmetic shift (at most 2^k in magnitude), the lower ones by a mask
    (below 2^k). Each limb's float64 matmul is exact, and the int64 shifts
    that combine them wrap modulo 2^64, so ``acc`` is exact mod 2^64 and
    exact outright when the block bound fits int64. Past that bound, a plain
    float64 matmul is within n * 2^-53 * |a| @ |w| < 2^60 of the true sum
    for n < 2^30 inputs of 32 bits: an entry it puts at 2^62 or more has
    |acc| > 2^61 >= 2^(31 + frac_bits) and is set to 2^62 of its sign, and
    every other entry has |acc| + half < 2^63.
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
    if col_bound * a_bound + half >= 2**63:  # acc may have wrapped
        est = a_ext.astype(np.float64) @ wf
        sat = np.abs(est) >= 2.0**62
        acc[sat] = np.clip(est[sat], -2.0**62, 2.0**62)
    return acc


def quantize_inputs(x, fmt: QFormat) -> np.ndarray:
    """Quantize an input vector, raising if any value falls outside the
    representable range of the format. The error carries the flat index of
    the first such value."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    finite = np.isfinite(x)
    if not finite.all():
        raise FixedPointRangeError("input contains non-finite values", int(np.argmin(finite)))
    v = _round_half_away(x * fmt.scale)
    outside = (v < INT32_MIN) | (v > INT32_MAX)
    if outside.any():
        index = int(np.argmax(outside))
        raise FixedPointRangeError(
            f"input {float(x[index])!r} is outside the representable range "
            f"[{fmt.min_value}, {fmt.max_value}]",
            index,
        )
    return v.astype(np.int64)


def infer_fixed(fp: FixedPointNet, x) -> np.ndarray:
    """Forward pass entirely in integer arithmetic; result dequantized.

    ``x`` is one row of shape ``(inputs,)`` or a matrix of shape
    ``(rows, inputs)``; the result is ``(outputs,)`` or ``(rows, outputs)``.
    Per connection layer: bias-extended activations (bias input is 1.0 in
    fixed point) are accumulated wide, then one ``tanh_lut_eval`` pass
    rescales, saturates and applies the tanh table under one sign. Each
    layer's input is a ``(rows, size + 1)`` buffer whose last column holds
    the bias input, set once per call.
    """
    rows, single = _input_rows(x, fp.n_inputs)
    fmt = fp.qformat
    lut = build_tanh_lut(fmt)
    exts = [np.empty((rows.shape[0], size + 1), dtype=np.int64)
            for size in fp.layer_sizes[:-1]]
    for ext in exts:
        ext[:, -1] = fmt.scale
    exts[0][:, :-1] = quantize_inputs(rows, fmt).reshape(rows.shape)
    for l, w in enumerate(fp.weights):
        a = tanh_lut_eval(_accumulate(exts[l], w, fmt.frac_bits), lut, shift=fmt.frac_bits)
        if l + 1 < len(exts):
            exts[l + 1][:, :-1] = a
    out = a / fmt.scale
    return out[0] if single else out
