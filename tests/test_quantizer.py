"""Tests for fixed-point quantization and the integer inference kernel.

The anchor oracle is ``oracle_forward_q``: the same kernel re-derived with
unbounded Python integers and its own independently built tanh table. The
production path must match it bit for bit, including on weight/input
combinations engineered to overflow a 64-bit accumulator.
"""

import math

import numpy as np
import pytest

from stresswatch import (
    Activation,
    FixedPointNet,
    FixedPointRangeError,
    LayerSpec,
    QFormat,
    ShapeError,
    build_mlp,
    build_network_a,
    build_tanh_lut,
    dequantize_network,
    infer_fixed,
    infer_float,
    load_fann,
    quantize,
    quantize_inputs,
    save_fann,
    tanh_lut_eval,
)
from stresswatch.quantizer import _accumulate

I32_MIN = -(2**31)
I32_MAX = 2**31 - 1


# ---------------------------------------------------------------------------
# independent oracle

def oracle_knots(frac_bits):
    """Re-derive the 257 tanh knots: round-to-nearest on the positive half,
    mirrored for the negative half."""
    scale = 1 << frac_bits
    knots = {}
    for k in range(129):
        q = int(math.floor(math.tanh(k / 32.0) * scale + 0.5))
        knots[k] = q
        knots[-k] = -q
    return knots


def oracle_tanh_q(x, frac_bits, knots):
    scale = 1 << frac_bits
    sign = -1 if x < 0 else 1
    ax = abs(x)
    if ax >= 4 * scale:
        return sign * (scale - 1)
    idx, r = divmod(ax * 32, scale)
    num = knots[idx] * (scale - r) + knots[idx + 1] * r
    return sign * ((num + scale // 2) // scale)


def div_half_away(n, scale):
    half = scale // 2
    if n >= 0:
        return (n + half) // scale
    return -((-n + half) // scale)


def oracle_forward_q(fp, x_q):
    """Integer forward pass with unbounded ints; returns dequantized floats."""
    scale = 1 << fp.qformat.frac_bits
    knots = oracle_knots(fp.qformat.frac_bits)
    a = [int(v) for v in x_q]
    for w, spec in zip(fp.weights, fp.layers[1:]):
        a_ext = a + [scale]
        nxt = []
        for j in range(w.shape[1]):
            acc = sum(a_ext[i] * int(w[i, j]) for i in range(len(a_ext)))
            q = div_half_away(acc, scale)
            q = min(max(q, I32_MIN), I32_MAX)
            if spec.activation is Activation.TANH:
                q = oracle_tanh_q(q, fp.qformat.frac_bits, knots)
            nxt.append(q)
        a = nxt
    return [v / scale for v in a]


# ---------------------------------------------------------------------------
# QFormat

def test_qformat_defaults():
    fmt = QFormat()
    assert fmt.frac_bits == 16
    assert fmt.scale == 65536
    assert fmt.resolution == 2.0**-16
    assert fmt.min_value == -32768.0
    assert fmt.max_value == (2**31 - 1) / 65536


@pytest.mark.parametrize("bad", [0, 31, -3])
def test_qformat_rejects_bad_frac_bits(bad):
    with pytest.raises(ValueError):
        QFormat(frac_bits=bad)


def test_qformat_dequantize():
    fmt = QFormat(8)
    out = fmt.dequantize(np.array([256, -128, 1]))
    assert np.array_equal(out, [1.0, -0.5, 1.0 / 256])


# ---------------------------------------------------------------------------
# weight quantization

def test_quantize_known_values():
    w = np.array([[0.5, 70000.0, -70000.0], [0.25, -0.125, 1.0]])
    net = build_mlp([1, 3], weights=[w])
    fp = quantize(net)
    q = fp.weights[0]
    assert q[0, 0] == 32768
    assert q[0, 1] == I32_MAX       # clipped high
    assert q[0, 2] == I32_MIN       # clipped low
    assert q[1, 0] == 16384
    assert q[1, 1] == -8192
    assert q[1, 2] == 65536
    assert fp.saturated_weights == 2


def test_quantize_rounds_half_away_from_zero():
    # these denominators are exact in binary, so w * scale lands on x.5
    w = np.array([[7 / 131072, -7 / 131072, 1 / 131072, -1 / 131072],
                  [0.0, 0.0, 0.0, 0.0]])
    fp = quantize(build_mlp([1, 4], weights=[w]))
    assert fp.weights[0][0].tolist() == [4, -4, 1, -1]


def test_quantization_error_within_half_ulp():
    rng = np.random.default_rng(11)
    net = build_mlp([3, 7, 2], weights=[
        rng.uniform(-4, 4, size=(4, 7)), rng.uniform(-4, 4, size=(8, 2))
    ])
    fp = quantize(net)
    assert fp.saturated_weights == 0
    deq = dequantize_network(fp)
    for orig, back in zip(net.weights, deq.weights):
        assert np.max(np.abs(orig - back)) <= 0.5 * fp.qformat.resolution + 1e-15


def test_fixed_net_rejects_out_of_range_weights():
    lut = build_tanh_lut(QFormat())
    layers = (LayerSpec(1, Activation.LINEAR), LayerSpec(1, Activation.TANH))
    with pytest.raises(FixedPointRangeError):
        FixedPointNet(layers, (np.array([[2**31], [0]]),), QFormat(), lut)


def test_fixed_net_counts_match_float_counts():
    fp = quantize(build_network_a(seed=3))
    assert fp.layer_sizes == (5, 50, 50, 3)
    assert fp.neuron_count == 108
    assert fp.weight_count == 3003


# ---------------------------------------------------------------------------
# tanh lookup table

def test_lut_knots_match_oracle():
    for frac_bits in (8, 16, 24):
        lut = build_tanh_lut(QFormat(frac_bits))
        knots = oracle_knots(frac_bits)
        got = {k - 128: int(v) for k, v in enumerate(lut.values)}
        assert got == knots
        assert lut.saturation == (1 << frac_bits) - 1


def test_lut_eval_zero_and_knot_exactness():
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    assert tanh_lut_eval(0, lut) == 0
    step = fmt.scale // 32
    # the outermost knots (k = +/-128) sit exactly on the clamp boundary
    for k in range(-127, 128):
        assert tanh_lut_eval(k * step, lut) == int(lut.values[128 + k])
    assert tanh_lut_eval(128 * step, lut) == lut.saturation
    assert tanh_lut_eval(-128 * step, lut) == -lut.saturation


def test_lut_eval_is_odd_and_clamps():
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    rng = np.random.default_rng(21)
    xs = rng.integers(-6 * fmt.scale, 6 * fmt.scale, size=20000)
    ys = tanh_lut_eval(xs, lut)
    assert np.array_equal(tanh_lut_eval(-xs, lut), -ys)
    sat = lut.saturation
    for x in (4 * fmt.scale, 4 * fmt.scale + 123, 10 * fmt.scale, I32_MAX):
        assert tanh_lut_eval(x, lut) == sat
        assert tanh_lut_eval(-x, lut) == -sat


def test_lut_eval_scalar_and_array_agree():
    lut = build_tanh_lut(QFormat())
    xs = [-300000, -12345, 0, 777, 65536, 4 * 65536]
    arr = tanh_lut_eval(np.array(xs), lut)
    for x, expect in zip(xs, arr):
        y = tanh_lut_eval(x, lut)
        assert isinstance(y, int)
        assert y == expect


def test_lut_exhaustive_deviation_and_monotonicity():
    # every representable input strictly inside (-4, 4)
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    xs = np.arange(-4 * fmt.scale + 1, 4 * fmt.scale)
    ys = tanh_lut_eval(xs, lut)
    dev = np.abs(ys / fmt.scale - np.tanh(xs / fmt.scale))
    assert float(dev.max()) <= 2e-4
    # non-decreasing, including across the clamp boundary
    wide = np.arange(-5 * fmt.scale, 5 * fmt.scale, 17)
    assert np.all(np.diff(tanh_lut_eval(wide, lut)) >= 0)


def test_lut_close_to_tanh_at_one():
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    y = tanh_lut_eval(fmt.scale, lut)
    assert abs(y / fmt.scale - math.tanh(1.0)) <= 1e-3


# ---------------------------------------------------------------------------
# input quantization

def test_quantize_inputs_roundtrip_exact():
    fmt = QFormat()
    q = quantize_inputs([0.5, -0.25, I32_MAX / fmt.scale], fmt)
    assert q.tolist() == [32768, -16384, I32_MAX]


def test_quantize_inputs_range_errors():
    fmt = QFormat()
    with pytest.raises(FixedPointRangeError):
        quantize_inputs([40000.0], fmt)
    with pytest.raises(FixedPointRangeError):
        quantize_inputs([0.0, float("nan")], fmt)
    with pytest.raises(FixedPointRangeError):
        quantize_inputs([float("inf")], fmt)


# ---------------------------------------------------------------------------
# integer inference

def test_infer_fixed_zero_net_is_exactly_zero():
    sizes = [3, 4, 2]
    zeros = [np.zeros((4, 4)), np.zeros((5, 2))]
    fp = quantize(build_mlp(sizes, weights=zeros))
    out = infer_fixed(fp, [0.3, -0.7, 0.1])
    assert out.tolist() == [0.0, 0.0]


def test_infer_fixed_shape_check():
    fp = quantize(build_network_a(seed=0))
    with pytest.raises(ShapeError):
        infer_fixed(fp, [0.1, 0.2])


def test_fixed_matches_oracle_on_ordinary_nets():
    rng = np.random.default_rng(31)
    shapes = [[2, 3, 1], [4, 6, 6, 2], [5, 8, 3], [1, 2, 2, 2, 1]]
    for trial in range(50):
        sizes = shapes[trial % len(shapes)]
        net = build_mlp(sizes, seed=1000 + trial)
        fp = quantize(net)
        x = rng.uniform(-1, 1, size=sizes[0])
        got = infer_fixed(fp, x)
        want = oracle_forward_q(fp, quantize_inputs(x, fp.qformat))
        assert got.tolist() == want


def test_fixed_batch_matches_oracle_row_by_row():
    """A (rows, inputs) matrix goes through one call; each output row must
    equal the oracle on that row alone, across shapes, a linear output
    layer and other fraction widths."""
    rng = np.random.default_rng(37)
    cases = [(build_mlp(sizes, seed=1100 + i), QFormat())
             for i, sizes in enumerate([[2, 3, 1], [4, 6, 6, 2], [5, 8, 3], [1, 2, 2, 2, 1]])]
    cases.append((build_mlp([4, 8, 2], seed=1200, output_activation=Activation.LINEAR),
                  QFormat()))
    cases += [(build_network_a(seed=1300 + f), QFormat(f)) for f in (12, 20)]
    for net, fmt in cases:
        fp = quantize(net, fmt)
        xs = rng.uniform(-3, 3, size=(40, net.n_inputs))
        got = infer_fixed(fp, xs)
        assert got.shape == (40, net.n_outputs)
        for x, row in zip(xs, got):
            assert row.tolist() == oracle_forward_q(fp, quantize_inputs(x, fmt))
        assert infer_fixed(fp, xs[:0]).shape == (0, net.n_outputs)


def test_fixed_matches_oracle_under_forced_overflow():
    """Weights and inputs at the 32-bit extremes push the per-neuron
    accumulator far beyond int64; the exact fallback must keep the result
    identical to the big-integer oracle (a wraparound would be wildly off)."""
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    layers = (
        LayerSpec(4, Activation.LINEAR),
        LayerSpec(3, Activation.TANH),
        LayerSpec(2, Activation.TANH),
    )
    rng = np.random.default_rng(41)
    exact_blocks = 0
    for trial in range(25):
        w0 = rng.integers(I32_MIN, I32_MAX, size=(5, 3), endpoint=True)
        w1 = rng.integers(I32_MIN, I32_MAX, size=(4, 2), endpoint=True)
        x_q = rng.integers(I32_MIN, I32_MAX, size=4, endpoint=True)
        if trial == 0:
            # fully deterministic worst case: everything pinned at the max
            w0 = np.full((5, 3), I32_MAX)
            w1 = np.full((4, 2), I32_MIN)
            x_q = np.full(4, I32_MAX)
        x_q[0] = I32_MAX  # guarantees the accumulator bound trips
        fp = FixedPointNet(layers, (w0, w1), fmt, lut)
        got = infer_fixed(fp, x_q / fmt.scale)
        want = oracle_forward_q(fp, x_q)
        assert got.tolist() == want

        # 2-D: one all-I32_MAX row among ordinary ones sends the whole block
        # down the exact path; every row must still match the oracle
        block = rng.integers(-fmt.scale, fmt.scale, size=(7, 4), endpoint=True)
        extreme = trial % 7
        block[extreme] = I32_MAX
        a_ext = np.hstack((block, np.full((7, 1), fmt.scale)))
        half = fmt.scale >> 1
        assert _accumulate(np.delete(a_ext, extreme, 0), w0, half).dtype == np.int64
        path = _accumulate(a_ext, w0, half).dtype
        assert path == _accumulate(a_ext[extreme:extreme + 1], w0, half).dtype
        exact_blocks += path == object
        got = infer_fixed(fp, block / fmt.scale)
        for row_q, row in zip(block, got):
            assert row.tolist() == oracle_forward_q(fp, row_q)
    # the random weights trip the int64 bound in most trials, not all
    assert exact_blocks >= 20

    # show the guard is load-bearing: an int64 dot of the pinned case wraps
    a_ext = np.append(np.full(4, I32_MAX), fmt.scale).astype(np.int64)
    w_col = np.full(5, I32_MAX, dtype=np.int64)
    exact = sum(int(a) * int(w) for a, w in zip(a_ext, w_col))
    assert exact >= 2**63
    wrapped = int(a_ext @ w_col)  # silently reduced mod 2**64
    assert wrapped != exact


def test_saturated_accumulator_lands_on_lut_clamp():
    # one huge weight drives the pre-activation past the 32-bit clamp, which
    # is itself far outside the table, so the output is the saturation value
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    layers = (LayerSpec(1, Activation.LINEAR), LayerSpec(2, Activation.TANH))
    w = np.array([[I32_MAX, I32_MIN], [I32_MAX, I32_MIN]])
    fp = FixedPointNet(layers, (w,), fmt, lut)
    out = infer_fixed(fp, [1.0])
    sat = lut.saturation / fmt.scale
    assert out.tolist() == [sat, -sat]


def test_fixed_tracks_float_within_tolerance():
    rng = np.random.default_rng(51)
    worst = 0.0
    for trial in range(120):
        sizes = [[3, 6, 2], [5, 10, 10, 3], [2, 4, 4, 1]][trial % 3]
        net = build_mlp(sizes, seed=2000 + trial)
        fp = quantize(net)
        x = rng.uniform(-1, 1, size=sizes[0])
        diff = np.max(np.abs(infer_fixed(fp, x) - infer_float(net, x)))
        worst = max(worst, float(diff))
    assert 0.0 < worst <= 1e-2


def test_fixed_tracks_float_with_linear_output():
    rng = np.random.default_rng(61)
    net = build_mlp([4, 8, 2], seed=7, output_activation=Activation.LINEAR)
    fp = quantize(net)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=4)
        diff = np.max(np.abs(infer_fixed(fp, x) - infer_float(net, x)))
        assert diff <= 1e-2


def test_fixed_fidelity_other_formats():
    rng = np.random.default_rng(71)
    for frac_bits, tol in ((12, 2e-2), (20, 1e-2)):
        fmt = QFormat(frac_bits)
        for trial in range(20):
            net = build_mlp([3, 6, 2], seed=3000 + trial)
            fp = quantize(net, fmt)
            x = rng.uniform(-1, 1, size=3)
            diff = np.max(np.abs(infer_fixed(fp, x) - infer_float(net, x)))
            assert diff <= tol


# ---------------------------------------------------------------------------
# file round trip

def test_fixed_round_trip_through_text():
    fp = quantize(build_network_a(seed=5))
    text = save_fann(fp)
    lines = text.splitlines()
    assert lines[0] == "SWNET_FIX_1"
    assert lines[3] == "decimal_point=16"
    back = load_fann(text)
    assert isinstance(back, FixedPointNet)
    assert back.qformat == fp.qformat
    assert back.layer_sizes == fp.layer_sizes
    assert back.saturated_weights is None
    for a, b in zip(fp.weights, back.weights):
        assert np.array_equal(a, b)
    rng = np.random.default_rng(81)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=5)
        assert infer_fixed(fp, x).tolist() == infer_fixed(back, x).tolist()


def test_dequantized_network_runs_float_path():
    fp = quantize(build_network_a(seed=9))
    net = dequantize_network(fp)
    for w_q, w_f in zip(fp.weights, net.weights):
        assert np.array_equal(w_f, w_q / fp.qformat.scale)
    out = infer_float(net, [0.1, -0.2, 0.3, 0.0, 0.5])
    assert out.shape == (3,)
