"""Tests for fixed-point quantization and the integer inference kernel.

The anchor oracle is ``oracle_forward_q``: the same kernel re-derived with
unbounded Python integers and its own independently built tanh table. The
production path must match it bit for bit, including on weight/input
combinations engineered to overflow a 64-bit accumulator.
"""

import dataclasses
import math

import numpy as np
import pytest

from stresswatch import (
    FixedPointNet,
    FixedPointRangeError,
    QFormat,
    ShapeError,
    TanhTable,
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
from stresswatch.quantizer import LUT_RANGE, _accumulate

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
    for w in fp.weights:
        a_ext = a + [scale]
        nxt = []
        for j in range(w.shape[1]):
            acc = sum(a_ext[i] * int(w[i, j]) for i in range(len(a_ext)))
            q = div_half_away(acc, scale)
            q = min(max(q, I32_MIN), I32_MAX)
            nxt.append(oracle_tanh_q(q, fp.qformat.frac_bits, knots))
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
    with pytest.raises(FixedPointRangeError):
        FixedPointNet((1, 1), (np.array([[2**31], [0]]),), QFormat())


def test_fixed_net_counts_match_float_counts():
    fp = quantize(build_network_a(seed=3))
    assert fp.layer_sizes == (5, 50, 50, 3)
    assert fp.neuron_count == 108
    assert fp.weight_count == 3003


# ---------------------------------------------------------------------------
# tanh lookup table

def test_lut_is_built_once_per_format():
    assert build_tanh_lut(QFormat(16)) is build_tanh_lut(QFormat())
    assert build_tanh_lut(QFormat(8)).frac_bits == 8


@pytest.mark.parametrize("frac_bits", range(1, 31))
def test_shared_lut_is_read_only_throughout(frac_bits):
    # one table per format serves every net in the process, so no array
    # reachable from it, a view's owner included, may be written
    lut = build_tanh_lut(QFormat(frac_bits))
    assert [f.name for f in dataclasses.fields(lut)] == ["frac_bits", "base", "slope"]
    assert vars(lut).keys() == {"frac_bits", "base", "slope"}
    for name in ("base", "slope"):
        arr = getattr(lut, name)
        assert arr.dtype == np.int64 and arr.shape == (LUT_RANGE * 32 + 1,)
        while isinstance(arr, np.ndarray):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
            arr = arr.base


def test_tanh_tables_compare_and_hash_by_identity():
    a = build_tanh_lut(QFormat(16))
    b = TanhTable(a.frac_bits, a.base, a.slope)
    assert a == a
    assert a != b                        # equal knots, two objects
    assert hash(a) == hash(a)
    assert {a: 1, b: 2}[a] == 1


def test_lut_knots_match_oracle():
    for frac_bits in (8, 16, 24):
        lut = build_tanh_lut(QFormat(frac_bits))
        knots = oracle_knots(frac_bits)
        n = LUT_RANGE * 32
        assert lut.base[:n].tolist() == [knots[k] for k in range(n)]
        assert lut.slope[:n].tolist() == [knots[k + 1] - knots[k] for k in range(n)]
        # the last slot is the saturation value, one ULP below 1.0, flat
        assert (int(lut.base[n]), int(lut.slope[n])) == ((1 << frac_bits) - 1, 0)


def test_lut_eval_zero_and_knot_exactness():
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    assert tanh_lut_eval(0, lut) == 0
    step = fmt.scale // 32
    # the outermost knots (k = +/-128) sit exactly on the clamp boundary
    for k in range(-127, 128):
        assert tanh_lut_eval(k * step, lut) == int(np.sign(k) * lut.base[abs(k)])
    assert tanh_lut_eval(128 * step, lut) == fmt.scale - 1
    assert tanh_lut_eval(-128 * step, lut) == -(fmt.scale - 1)


def test_lut_eval_is_odd_and_clamps():
    fmt = QFormat()
    lut = build_tanh_lut(fmt)
    rng = np.random.default_rng(21)
    xs = rng.integers(-6 * fmt.scale, 6 * fmt.scale, size=20000)
    ys = tanh_lut_eval(xs, lut)
    assert np.array_equal(tanh_lut_eval(-xs, lut), -ys)
    sat = fmt.scale - 1
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
    # a plain float in the message, and the flat index of the first bad value
    with pytest.raises(FixedPointRangeError) as info:
        quantize_inputs(np.array([[0.0, 1.0], [-40000.0, 40000.0]]), fmt)
    assert str(info.value) == (
        "input -40000.0 is outside the representable range [-32768.0, 32767.99998474121]"
    )
    assert info.value.index == 2
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
    equal the oracle on that row alone, across shapes and other fraction
    widths."""
    rng = np.random.default_rng(37)
    cases = [(build_mlp(sizes, seed=1100 + i), QFormat())
             for i, sizes in enumerate([[2, 3, 1], [4, 6, 6, 2], [5, 8, 3], [1, 2, 2, 2, 1]])]
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
    accumulator far beyond int64, where the int64 sum wraps; the kernel must
    still saturate exactly where the big-integer oracle does."""
    fmt = QFormat()
    half = fmt.scale >> 1
    rng = np.random.default_rng(41)
    wide_blocks = saturated = 0
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
        fp = FixedPointNet((4, 3, 2), (w0, w1), fmt)
        got = infer_fixed(fp, x_q / fmt.scale)
        want = oracle_forward_q(fp, x_q)
        assert got.tolist() == want

        # 2-D: one all-I32_MAX row among ordinary ones puts the whole block
        # past the int64 bound; every row must still match the oracle
        block = rng.integers(-fmt.scale, fmt.scale, size=(7, 4), endpoint=True)
        block[trial % 7] = I32_MAX
        a_ext = np.hstack((block, np.full((7, 1), fmt.scale)))
        acc = _accumulate(a_ext, w0, fmt.frac_bits)
        products = a_ext.astype(object) @ w0.astype(object)
        assert_accumulate_contract(acc, products)
        exact = _floor_div_rescale(products, fmt.scale, half)
        assert np.array_equal(_floor_div_rescale(acc, fmt.scale, half), exact)
        col_bound = int(np.abs(w0).sum(axis=0).max())
        wide_blocks += col_bound * I32_MAX + half >= 2**63
        saturated += int(np.count_nonzero((exact == I32_MIN) | (exact == I32_MAX)))
        got = infer_fixed(fp, block / fmt.scale)
        for row_q, row in zip(block, got):
            assert row.tolist() == oracle_forward_q(fp, row_q)
    # the random weights trip the int64 bound in most trials, not all
    assert wide_blocks >= 20 and saturated >= 25

    # show the saturation test is load-bearing: an int64 dot of the pinned
    # case wraps
    a_ext = np.append(np.full(4, I32_MAX), fmt.scale).astype(np.int64)
    w_col = np.full(5, I32_MAX, dtype=np.int64)
    exact = sum(int(a) * int(w) for a, w in zip(a_ext, w_col))
    assert exact >= 2**63
    wrapped = int(a_ext @ w_col)  # silently reduced mod 2**64
    assert wrapped != exact


def _floor_div_rescale(acc, scale, half):
    """Reference rescale: round half away from zero by floor division on
    exact integers, then clamp into the 32-bit range."""
    acc = acc.astype(object)
    q = np.where(acc >= 0, (acc + half) // scale, -((-acc + half) // scale))
    return np.clip(q, I32_MIN, I32_MAX).astype(np.int64)


def assert_accumulate_contract(acc, exact):
    """``_accumulate`` against exact integer products: equal wherever
    |exact| < 2^61, 2^62 of the exact sign wherever the product passes
    int64, and one of the two in between. Either way every 32-bit rescale
    by 2^f, f <= 30, gives the same result."""
    exact = np.asarray(exact, dtype=object)
    assert acc.dtype == np.int64 and acc.shape == exact.shape
    got = acc.astype(object)
    magnitude = np.abs(exact)
    equal = (got == exact).astype(bool)
    pinned = (got == np.where(exact < 0, -(2**62), 2**62)).astype(bool)
    assert equal[(magnitude < 2**61).astype(bool)].all()
    assert pinned[(magnitude >= 2**63).astype(bool)].all()
    assert (equal | pinned).all()


def test_accumulate_limb_tier_matches_exact_products():
    """Seeded fuzz of the float64 limb matmuls and the shift rescale against
    a matmul of exact Python integers and the floor-division formula. Block
    bounds straddle 2^53, where one limb stops being exact, and reach the
    largest value whose accumulator provably fits int64; the fraction is
    wide enough that most results are not clamped. One step past that bound
    a row aligned with the heaviest weight column saturates, and the
    float64 estimate must clamp it the way the oracle does."""
    rng = np.random.default_rng(97)
    below_2_53 = above_2_53 = past_limit = saturated = 0
    top_bound = 0
    for trial in range(300):
        n_in = int(rng.integers(1, 120))
        cols = int(rng.integers(1, 24))
        rows = int(rng.integers(1, 24))
        w_bits = int(rng.integers(0, 32))
        w = rng.integers(-(1 << w_bits), 1 << w_bits, size=(n_in, cols), endpoint=True)
        w[0, 0] = 1 << w_bits
        bound_bits = int(rng.integers(40, 65))
        frac_bits = int(rng.integers(min(max(bound_bits - 34, 1), 30), 31))
        scale = 1 << frac_bits
        half = scale >> 1
        col_bound = int(np.abs(w).sum(axis=0).max())
        limit = (2**63 - 1 - half) // col_bound     # largest |a| that fits
        a_max = min(limit, 2**bound_bits // col_bound)
        a = rng.integers(-a_max, a_max, size=(rows, n_in), endpoint=True)
        a[int(rng.integers(rows))] = a_max * rng.choice([-1, 1], size=n_in)
        exact = a.astype(object) @ w.astype(object)
        acc = _accumulate(a, w, frac_bits)
        assert_accumulate_contract(acc, exact)
        assert np.array_equal(_floor_div_rescale(acc, scale, half),
                              _floor_div_rescale(exact, scale, half))
        bound = col_bound * a_max
        below_2_53 += bound < 2**53
        above_2_53 += bound >= 2**53
        top_bound = max(top_bound, bound)
        if a_max == limit:
            heavy = np.where(w[:, np.abs(w).sum(axis=0).argmax()] < 0, -1, 1)
            a[0] = (limit + 1) * heavy * rng.choice([-1, 1])   # one past
            exact = a.astype(object) @ w.astype(object)
            acc = _accumulate(a, w, frac_bits)
            assert_accumulate_contract(acc, exact)
            want = _floor_div_rescale(exact, scale, half)
            assert np.array_equal(_floor_div_rescale(acc, scale, half), want)
            saturated += int(np.count_nonzero((want == I32_MIN) | (want == I32_MAX)))
            past_limit += 1
    assert below_2_53 >= 50 and above_2_53 >= 50 and past_limit >= 5
    assert saturated >= past_limit
    assert top_bound >= 2**63 - 2**31


def test_fixed_point_net_caps_each_column_below_2_52():
    """A column whose absolute values sum to 2^52 would leave the kernel's
    float64 limbs no bit; one unit less is accepted and still saturates
    exactly."""
    fmt = QFormat()
    sizes = (2**21 - 1, 1)
    w = np.full((2**21, 1), I32_MIN, dtype=np.int64)
    with pytest.raises(FixedPointRangeError, match="2\\^52"):
        FixedPointNet(sizes, (w,), fmt)
    w[0, 0] += 1
    fp = FixedPointNet(sizes, (w,), fmt)
    # inputs of +-1.0 and the bias input 1.0, as infer_fixed extends them
    a_ext = np.full((2, 2**21), fmt.scale, dtype=np.int64)
    a_ext[1, :-1] = -fmt.scale
    w = fp.weights[0]
    acc = _accumulate(a_ext, w, fmt.frac_bits)
    # every input is +-scale, so the exact sums are scale times int64 sums
    assert_accumulate_contract(acc, (a_ext // fmt.scale @ w).astype(object) * fmt.scale)
    half = fmt.scale >> 1
    assert _floor_div_rescale(acc, fmt.scale, half).tolist() == [[I32_MIN], [I32_MAX]]
    sat = (fmt.scale - 1) / fmt.scale
    assert infer_fixed(fp, np.ones(2**21 - 1)).tolist() == [-sat]
    assert infer_fixed(fp, -np.ones(2**21 - 1)).tolist() == [sat]


@pytest.mark.parametrize("frac_bits", [20, 24, 26, 28])
def test_net_a_fused_kernel_matches_exact_products(frac_bits):
    """Net A at wide fractions has block bounds from 2^52 to 2^60, past one
    float64 limb but inside int64, so no layer needs the saturation
    estimate, even for inputs at the ends of the format's range; every
    layer must match the big-integer oracle."""
    fmt = QFormat(frac_bits)
    fp = quantize(build_network_a(seed=1), fmt)
    lut = build_tanh_lut(fmt)
    half = fmt.scale >> 1
    rng = np.random.default_rng(frac_bits)
    x = rng.uniform(fmt.min_value, fmt.max_value, size=(64, fp.n_inputs))
    x[0], x[1] = fmt.max_value, fmt.min_value
    a = quantize_inputs(x, fmt).reshape(x.shape)
    for w in fp.weights:
        a_ext = np.hstack((a, np.full((a.shape[0], 1), fmt.scale)))
        assert int(np.abs(w).sum(axis=0).max()) * int(np.abs(a_ext).max()) + half < 2**63
        acc = _accumulate(a_ext, w, frac_bits)
        exact = a_ext.astype(object) @ w.astype(object)
        assert acc.tolist() == exact.tolist()
        a = tanh_lut_eval(_floor_div_rescale(acc, fmt.scale, half), lut)
        assert np.array_equal(tanh_lut_eval(acc, lut, shift=frac_bits), a)
    got = infer_fixed(fp, x[:8])
    for x_row, row in zip(x[:8], got):
        assert row.tolist() == oracle_forward_q(fp, quantize_inputs(x_row, fmt))


@pytest.mark.parametrize("frac_bits", [29, 30])
def test_32_bit_clip_binds_before_the_table_clamp(frac_bits):
    """Past 28 fraction bits the 32-bit range ends below 4.0 on the
    positive side (29 bits) or on both (30 bits): a pre-activation past it
    is clipped to INT32_MAX or INT32_MIN and then interpolated, not sent to
    the table's saturation value. Batches must match the oracle row by
    row, with clipped pre-activations of both signs in every layer."""
    fmt = QFormat(frac_bits)
    scale = fmt.scale
    rng = np.random.default_rng(frac_bits)
    sizes = (4, 6, 6, 3)
    weights = tuple(rng.integers(I32_MIN, I32_MAX, size=(n + 1, m), endpoint=True)
                    for n, m in zip(sizes[:-1], sizes[1:]))
    fp = FixedPointNet(sizes, weights, fmt)
    xs = rng.uniform(fmt.min_value, fmt.max_value, size=(300, sizes[0]))
    got = infer_fixed(fp, xs)
    knots = oracle_knots(frac_bits)
    binding = {"high": 0, "low": 0}
    for x, row in zip(xs, got):
        a = quantize_inputs(x, fmt).tolist()
        assert row.tolist() == oracle_forward_q(fp, a)
        for w in fp.weights:
            z = [div_half_away(sum(int(v) * int(c) for v, c in zip(a + [scale], col)), scale)
                 for col in w.T]
            clipped = [min(max(q, I32_MIN), I32_MAX) for q in z]
            for q, c in zip(z, clipped):
                if oracle_tanh_q(c, frac_bits, knots) != oracle_tanh_q(q, frac_bits, knots):
                    binding["high" if q > 0 else "low"] += 1
            a = [oracle_tanh_q(c, frac_bits, knots) for c in clipped]
    assert binding["high"] >= 50
    if frac_bits == 30:
        assert binding["low"] >= 50
    else:
        assert binding["low"] == 0      # -2^31 is exactly -4.0 at 29 bits


def test_saturated_accumulator_lands_on_lut_clamp():
    # one huge weight drives the pre-activation past the 32-bit clamp, which
    # is itself far outside the table, so the output is the saturation value
    fmt = QFormat()
    w = np.array([[I32_MAX, I32_MIN], [I32_MAX, I32_MIN]])
    fp = FixedPointNet((1, 2), (w,), fmt)
    out = infer_fixed(fp, [1.0])
    sat = int(build_tanh_lut(fmt).base[-1]) / fmt.scale
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
