"""Network construction, inference, training, footprint, serialization."""

import math
import tracemalloc

import numpy as np
import pytest

from stresswatch import (
    ActivationOverflowError,
    ConfigError,
    DivergenceError,
    FixedPointNet,
    FixedPointRangeError,
    NetworkModel,
    ParseError,
    QFormat,
    ShapeError,
    build_mlp,
    build_network_a,
    build_network_b,
    footprint,
    infer_float,
    load_fann,
    mse_gradients,
    mse_loss,
    quantize,
    save_fann,
    train,
)
from stresswatch import nn_core


def naive_forward(net, x):
    """Independent scalar-loop oracle for the forward pass."""
    act = [float(v) for v in x]
    for mat in net.weights:
        nxt = []
        for j in range(mat.shape[1]):
            s = float(mat[-1, j])  # bias row is last
            for i, a in enumerate(act):
                s += a * float(mat[i, j])
            nxt.append(math.tanh(s))
        act = nxt
    return np.array(act)


# ---------------------------------------------------------------- topology

def test_network_a_dimensions():
    net = build_network_a()
    assert net.layer_sizes == (5, 50, 50, 3)
    assert net.neuron_count == 108
    assert net.weight_count == 3003
    assert net.layer_count == 4


def test_network_b_dimensions():
    net = build_network_b()
    assert net.layer_sizes[0] == 100
    assert net.layer_sizes[-1] == 8
    assert net.layer_count == 26
    assert net.layer_sizes[24] == 96  # last (24th) hidden layer
    assert net.neuron_count == 1356
    assert net.weight_count == 81032


def test_weight_count_formula_matches_storage():
    rng = np.random.default_rng(42)
    for _ in range(100):
        sizes = [int(rng.integers(1, 20)) for _ in range(rng.integers(2, 7))]
        net = build_mlp(sizes, seed=int(rng.integers(0, 1000)))
        formula = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
        assert net.weight_count == formula
        assert sum(w.size for w in net.weights) == formula
        assert net.neuron_count == sum(sizes)


@pytest.mark.parametrize(
    "make, bad_value, value_error",
    [
        (NetworkModel, np.nan, ShapeError),
        (lambda sizes, weights: FixedPointNet(sizes, weights, QFormat()),
         2**31, FixedPointRangeError),
    ],
    ids=["NetworkModel", "FixedPointNet"],
)
def test_weight_matrix_shapes_validated(make, bad_value, value_error):
    sizes = (2, 3)
    with pytest.raises(ShapeError):
        make(sizes, (np.zeros((2, 3)),))  # needs (2+1) x 3
    with pytest.raises(ShapeError):
        make((2,), ())  # a single layer
    with pytest.raises(ShapeError):
        make((2, 0), (np.zeros((3, 0)),))  # an empty layer
    with pytest.raises(ShapeError):
        make(sizes, (np.zeros((3, 3)), np.zeros((4, 3))))  # one too many
    with pytest.raises(ShapeError):
        make((2, 3, 3), (np.zeros((3, 3)),))  # one too few
    with pytest.raises(value_error):
        make(sizes, (np.full((3, 3), bad_value),))


def test_networks_compare_and_hash_by_identity():
    fixed = FixedPointNet((2, 3), (np.ones((3, 3)),), QFormat())
    for make in (lambda: build_network_a(1), lambda: build_network_b(1),
                 lambda: FixedPointNet(fixed.layer_sizes, fixed.weights, fixed.qformat)):
        a, b = make(), make()
        assert a == a
        assert a != b                    # equal contents, two objects
        assert not a == b
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1


def test_builds_are_deterministic_per_seed():
    n1, n2 = build_network_a(seed=7), build_network_a(seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(n1.weights, n2.weights))
    n3 = build_network_a(seed=8)
    assert any(not np.array_equal(a, b) for a, b in zip(n1.weights, n3.weights))


# ---------------------------------------------------------------- inference

def test_zero_weights_give_zero_output():
    sizes = [4, 6, 2]
    net = build_mlp(sizes, weights=[np.zeros((5, 6)), np.zeros((7, 2))])
    assert np.array_equal(infer_float(net, np.ones(4)), np.zeros(2))


def test_identity_like_single_weight():
    net = build_mlp([1, 1], weights=[np.array([[1.0], [0.0]])])
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert infer_float(net, [x])[0] == pytest.approx(math.tanh(x), abs=1e-15)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(123)
    for _ in range(100):
        depth = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 12)) for _ in range(depth)]
        net = build_mlp(sizes, seed=int(rng.integers(0, 10_000)))
        x = rng.uniform(-2, 2, sizes[0])
        got = infer_float(net, x)
        want = naive_forward(net, x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_network_a_forward_against_oracle():
    net = build_network_a(seed=99)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-1, 1, 5)
        np.testing.assert_allclose(
            infer_float(net, x), naive_forward(net, x), rtol=1e-12, atol=1e-12
        )


def test_batch_rows_are_bit_identical_to_single_rows():
    """A matrix of rows gives, row for row, exactly the bits of one-row
    calls and of the per-row ``x @ w[:-1] + w[-1]`` product, so classify
    output does not depend on how rows are grouped."""

    def per_row(net, x):
        a = np.asarray(x, dtype=np.float64)
        for w in net.weights:
            a = np.tanh(a @ w[:-1] + w[-1])
        return a

    rng = np.random.default_rng(17)
    nets = [
        build_network_a(seed=4),
        build_mlp([3, 7, 2], seed=5),
        build_mlp([1, 4, 1], seed=6),
    ]
    for net in nets:
        xs = rng.normal(scale=2.0, size=(300, net.n_inputs))
        got = infer_float(net, xs)
        assert got.shape == (300, net.n_outputs)
        for i, x in enumerate(xs):
            assert got[i].tolist() == infer_float(net, x).tolist()
            assert got[i].tolist() == per_row(net, x).tolist()
        assert infer_float(net, xs[:0]).shape == (0, net.n_outputs)
        assert infer_float(net, xs[:1]).shape == (1, net.n_outputs)


def test_tanh_outputs_stay_inside_open_interval():
    net = build_mlp([3, 8, 2], seed=11, weights=None)
    big = np.array([1e6, -1e6, 1e6])
    out = infer_float(net, big)
    assert (np.abs(out) < 1.0).all()


@pytest.mark.parametrize("layer", [1, 2])
def test_infer_names_the_row_whose_weighted_sum_overflows(layer):
    # layer 1 overflows on inputs near the float maximum; layer 2 on a
    # weight near it, although its inputs are tanh outputs in (-1, 1)
    weights = [np.full((3, 2), 0.75), np.full((3, 1), 0.5)]
    x = np.ones((4, 2))
    if layer == 1:
        x[2:] = 1.7e308
    else:
        weights[1][:-1] = 1.7e308
        x[:2] = -0.5  # hidden activations 0: the sums of rows 0 and 1 stay finite
    net = build_mlp([2, 2, 1], weights=weights)
    with np.errstate(all="raise"), pytest.raises(ActivationOverflowError) as exc:
        infer_float(net, x)
    assert (exc.value.row, exc.value.layer) == (2, layer)
    assert str(exc.value) == f"row 2: the weighted sum into layer {layer} is not finite"


def test_infer_shape_errors():
    net = build_network_a()
    with pytest.raises(ShapeError):
        infer_float(net, np.zeros(4))
    with pytest.raises(ShapeError):
        infer_float(net, np.array([1.0, 2.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ShapeError):
        infer_float(net, np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        infer_float(net, np.zeros((2, 3, 5)))


# ---------------------------------------------------------------- training

def xor_dataset():
    xs = [np.array(v, dtype=float) for v in [(-1, -1), (-1, 1), (1, -1), (1, 1)]]
    ts = [np.array([v], dtype=float) for v in (-0.9, 0.9, 0.9, -0.9)]
    return list(zip(xs, ts))


def test_gradients_match_central_differences():
    rng = np.random.default_rng(77)
    for trial in range(5):
        net = build_mlp([3, 5, 2], seed=trial)
        ds = [(rng.uniform(-1, 1, 3), rng.uniform(-0.8, 0.8, 2)) for _ in range(4)]
        grads = mse_gradients(net, ds)
        eps = 1e-5
        for li, g in enumerate(grads):
            for idx in np.ndindex(g.shape):
                w_plus = [np.array(w) for w in net.weights]
                w_plus[li][idx] += eps
                w_minus = [np.array(w) for w in net.weights]
                w_minus[li][idx] -= eps
                up = mse_loss(NetworkModel(net.layer_sizes, tuple(w_plus)), ds)
                dn = mse_loss(NetworkModel(net.layer_sizes, tuple(w_minus)), ds)
                fd = (up - dn) / (2 * eps)
                denom = max(abs(g[idx]), abs(fd), 1e-8)
                assert abs(g[idx] - fd) / denom <= 1e-4


def test_toy_training_converges():
    net = build_mlp([2, 4, 1], seed=0)
    trained = train(net, xor_dataset(), epochs=500, learning_rate=0.3)
    assert mse_loss(trained, xor_dataset()) < 0.05


def test_zero_learning_rate_leaves_weights():
    net = build_mlp([2, 4, 1], seed=0)
    trained = train(net, xor_dataset(), epochs=10, learning_rate=0.0)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, trained.weights))


def test_training_divergence_names_epoch():
    # tanh outputs keep the loss of finite rows bounded, so a nan input row is
    # what makes the loss itself non-finite, before any step is taken
    ds = xor_dataset()
    ds[2] = (np.array([1.0, np.nan]), ds[2][1])
    net = build_mlp([2, 4, 1], seed=0)
    before = [np.array(w) for w in net.weights]
    with pytest.raises(DivergenceError) as exc:
        train(net, ds, epochs=500, learning_rate=0.1)
    assert exc.value.epoch == 0
    assert str(exc.value) == "training diverged: non-finite loss at epoch 0"
    assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))


@pytest.mark.filterwarnings("ignore:invalid value")
def test_infinite_input_diverges_in_the_weights_first():
    # tanh saturates the inf row's outputs, so the loss stays finite and the
    # first step's gradient (inf times a delta) poisons the weights
    ds = xor_dataset()
    ds[1] = (np.array([np.inf, 1.0]), ds[1][1])
    net = build_mlp([2, 4, 1], seed=0)
    before = [np.array(w) for w in net.weights]
    with pytest.raises(DivergenceError) as exc:
        train(net, ds, epochs=500, learning_rate=0.1)
    assert exc.value.epoch == 0
    assert str(exc.value) == "training diverged: non-finite weights at epoch 0"
    assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))


# The batch forward/backward pass and epoch loop as they stood before the
# flat-buffer pass: fresh arrays every epoch and each layer's input extended
# by a new ones column. The package must match them bit for bit.

def reference_forward(weights, xs):
    acts = [xs]
    for w in weights:
        acts.append(np.tanh(acts[-1] @ w[:-1] + w[-1]))
    return acts


def reference_gradients(weights, acts, ts):
    grads = [None] * len(weights)
    delta = 2.0 * (acts[-1] - ts) / ts.size
    for l in range(len(weights) - 1, -1, -1):
        delta = delta * (1.0 - acts[l + 1] ** 2)
        a_ext = np.hstack([acts[l], np.ones((acts[l].shape[0], 1))])
        grads[l] = a_ext.T @ delta
        if l > 0:
            delta = delta @ weights[l][:-1].T
    return grads


def reference_train(net, xs, ts, epochs, learning_rate):
    weights = [np.array(w) for w in net.weights]
    for _ in range(epochs):
        acts = reference_forward(weights, xs)
        grads = reference_gradients(weights, acts, ts)
        weights = [w - learning_rate * g for w, g in zip(weights, grads)]
    return weights


ORACLE_SIZES = [[2, 4, 1], [3, 5, 2], [5, 8, 3], [5, 50, 50, 3], [7, 16, 16, 16, 4]]


@pytest.mark.parametrize("sizes", ORACLE_SIZES, ids=lambda s: "-".join(map(str, s)))
def test_pass_matches_the_reference_loop_bit_for_bit(sizes):
    # 239 rows: the window count of a 1 h recording
    rng = np.random.default_rng(sum(sizes))
    xs = rng.normal(0.0, 1.0, (239, sizes[0]))
    ts = rng.uniform(-0.9, 0.9, (239, sizes[-1]))
    ds = list(zip(xs, ts))
    net = build_mlp(sizes, seed=5)

    acts = reference_forward(net.weights, xs)
    assert mse_loss(net, ds) == float(np.mean((acts[-1] - ts) ** 2))
    want = reference_gradients(net.weights, acts, ts)
    assert all(np.array_equal(g, w) for g, w in zip(mse_gradients(net, ds), want))

    want = reference_train(net, xs, ts, 60, 0.05)
    assert all(np.array_equal(g, w) for g, w in zip(train(net, ds, 60, 0.05).weights, want))


def test_build_mlp_refuses_a_negative_seed():
    with pytest.raises(ConfigError) as exc:
        build_mlp([2, 3, 1], seed=-1)
    assert str(exc.value) == "seed must not be negative, got -1"
    # the rule holds with given weights too, where the seed draws nothing
    with pytest.raises(ConfigError):
        build_mlp([1, 1], seed=-1, weights=[np.zeros((2, 1))])
    assert build_mlp([2, 3, 1], seed=None).layer_sizes == (2, 3, 1)


@pytest.mark.parametrize("epochs, learning_rate, message", [
    (-5, 0.1, "epochs must not be negative, got -5"),
    (10, math.inf, "learning_rate must be finite, got inf"),
    (10, -math.inf, "learning_rate must be finite, got -inf"),
    (10, math.nan, "learning_rate must be finite, got nan"),
], ids=["negative-epochs", "inf-rate", "-inf-rate", "nan-rate"])
def test_train_refuses_bad_settings_before_any_step(epochs, learning_rate, message):
    net = build_mlp([2, 4, 1], seed=0)
    # an empty dataset would raise ShapeError: the settings are checked first
    for ds in (xor_dataset(), []):
        with pytest.raises(ConfigError) as exc:
            train(net, ds, epochs=epochs, learning_rate=learning_rate)
        assert str(exc.value) == message


def test_train_rejects_bad_shapes():
    net = build_mlp([2, 4, 1], seed=0)
    with pytest.raises(ShapeError):
        train(net, [(np.zeros(3), np.zeros(1))], epochs=1, learning_rate=0.1)
    with pytest.raises(ShapeError) as exc:
        train(net, [(np.zeros(2), np.zeros(2))], epochs=1, learning_rate=0.1)
    assert str(exc.value) == "expected 1 targets, got 2"
    with pytest.raises(ShapeError):
        train(net, [], epochs=1, learning_rate=0.1)


# ---------------------------------------------------------------- footprint

def test_footprint_network_a():
    fp = footprint(build_network_a())
    assert (fp.neuron_bytes, fp.weight_bytes, fp.layer_bytes) == (1728, 12012, 32)
    assert fp.total_bytes == 13772


def test_footprint_network_b():
    assert footprint(build_network_b()).total_bytes == 346032


def test_footprint_smallest_net():
    assert footprint(build_mlp([1, 1])).total_bytes == 56


def test_footprint_counts_follow_the_layer_sizes():
    for sizes in ([1, 1], [5, 50, 50, 3], [3, 7, 2, 9]):
        net = build_mlp(sizes)
        fp = footprint(net)
        assert fp == nn_core.footprint_of_sizes(sizes)
        assert (fp.neurons, fp.weights, fp.layers) == (
            net.neuron_count, net.weight_count, net.layer_count)
    assert nn_core.footprint_of_sizes(nn_core.NETWORK_A_SIZES) == footprint(build_network_a())
    assert nn_core.footprint_of_sizes(nn_core.NETWORK_B_SIZES) == footprint(build_network_b())
    for bad in ([4], [3, 0, 2]):
        with pytest.raises(ShapeError):
            nn_core.footprint_of_sizes(bad)


# ------------------------------------------------------------ serialization

def test_roundtrip_topology_and_weights():
    net = build_network_a(seed=21)
    back = load_fann(save_fann(net))
    assert back.layer_sizes == net.layer_sizes
    for a, b in zip(net.weights, back.weights):
        np.testing.assert_allclose(b, a, rtol=1e-8, atol=0)


def test_save_is_idempotent_after_first_roundtrip():
    text = save_fann(build_network_a(seed=2))
    assert save_fann(load_fann(text)) == text


def test_hand_written_net_matches_hand_arithmetic(data_dir):
    net = load_fann((data_dir / "hand_2_2_1.net").read_text())
    x = (0.3, -0.7)
    h0 = math.tanh(0.3 * 0.5 + (-0.7) * 0.75 + 0.1)
    h1 = math.tanh(0.3 * -0.25 + (-0.7) * 1.0 + -0.2)
    want = math.tanh(h0 * 1.5 + h1 * -0.5 + 0.05)
    assert infer_float(net, x)[0] == pytest.approx(want, abs=1e-12)


def test_golden_network_file_loads(data_dir):
    net = load_fann((data_dir / "network_a_random.net").read_text())
    assert net.layer_sizes == (5, 50, 50, 3)
    assert net.weight_count == 3003


def corrupt_first_weight(lines):
    row = lines[3].split()
    row[0] = "oops"
    return lines[:3] + [" ".join(row)] + lines[4:]


@pytest.mark.parametrize(
    "mutate, lineno",
    [
        (lambda L: ["BOGUS_TAG"] + L[1:], 1),
        (lambda L: [L[0], "num_layers=x"] + L[2:], 2),
        (lambda L: [L[0], L[1], "layer_sizes=5 50 50"] + L[3:], 3),
        (corrupt_first_weight, 4),
    ],
)
def test_parse_errors_carry_line_numbers(mutate, lineno):
    lines = save_fann(build_network_a(seed=2)).splitlines()
    with pytest.raises(ParseError) as exc:
        load_fann("\n".join(mutate(lines)))
    assert exc.value.line == lineno


@pytest.mark.parametrize("header,message", [
    ("SWNET_FLO_1\nlayers=2\nlayer_sizes=1 1", "line 2: expected 'num_layers=...', got 'layers=2'"),
    ("SWNET_FLO_1\nnum_layers=2", "line 2: truncated header"),
    ("SWNET_FLO_1\nnum_layers=1\nlayer_sizes=1",
     "line 3: a network needs at least an input and an output layer"),
    ("SWNET_FLO_1\nnum_layers=2\nlayer_sizes=1 x",
     "line 3: layer_sizes has a non-integer entry: '1 x'"),
    ("SWNET_FLO_1\nnum_layers=2\nlayer_sizes=1 0", "line 3: layer sizes must be >= 1, got (1, 0)"),
    ("SWNET_FIX_1\nnum_layers=2\nlayer_sizes=1 1", "line 3: missing decimal_point line"),
    ("SWNET_FIX_1\nnum_layers=2\nlayer_sizes=1 1\ndecimal_point=x",
     "line 4: decimal_point is not an integer: 'x'"),
    ("SWNET_FIX_1\nnum_layers=2\nlayer_sizes=1 1\ndecimal_point=31",
     "line 4: frac_bits must be in [1, 30], got 31"),
], ids=["wrong-key", "truncated", "one-layer", "non-integer-size", "zero-size",
        "no-decimal-point", "non-integer-decimal-point", "decimal-point-range"])
def test_header_errors(header, message):
    with pytest.raises(ParseError) as exc:
        load_fann(header + "\n")
    assert str(exc.value) == message


def test_read_fann_refuses_a_file_that_is_not_ascii(tmp_path):
    path = tmp_path / "m.net"
    path.write_bytes(save_fann(build_mlp([2, 2, 1], seed=0)).encode() + "# caf\u00e9\n".encode())
    with pytest.raises(ParseError) as exc:
        nn_core.read_fann(path)
    assert str(exc.value) == f"{path}: not an ASCII text file"


def test_missing_weight_detected():
    lines = save_fann(build_mlp([2, 2, 1], seed=0)).splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1])  # drop the very last weight
    with pytest.raises(ParseError, match="expected 9 weights, found 8"):
        load_fann("\n".join(lines) + "\n")


def test_extra_and_bad_tokens_rejected():
    base = save_fann(build_mlp([2, 2, 1], seed=0))
    with pytest.raises(ParseError, match="expected 9 weights, found 10"):
        load_fann(base + "0.5\n")
    with pytest.raises(ParseError, match="not a valid number"):
        load_fann(base.replace("0.", "0x", 1))
    with pytest.raises(ParseError, match="not finite"):
        load_fann("\n".join(base.splitlines()[:3]) + "\ninf " + " ".join(["0"] * 8) + "\n")
    with pytest.raises(ParseError, match="empty"):
        load_fann("")


def outcome(read):
    """What ``read()`` makes of a file: its flat weights, or its error."""
    try:
        values = read()
    except ParseError as exc:
        return exc.line, str(exc)
    except FixedPointRangeError as exc:
        return "range", str(exc)
    return values.dtype, values.shape, values.tobytes()


def reader_outcomes(text, fixed, expected):
    """What ``load_fann`` and the per-token scanner make of one file."""
    lines = text.splitlines()
    start = 4 if fixed else 3
    got = outcome(lambda: np.concatenate([w.ravel() for w in load_fann(text).weights]))
    want = outcome(lambda: nn_core._scan_weights(lines, start, expected, fixed))
    return got, want


def header(fixed, sizes):
    head = [nn_core.TAG_FIXED if fixed else nn_core.TAG_FLOAT,
            f"num_layers={len(sizes)}", "layer_sizes=" + " ".join(map(str, sizes))]
    return head + (["decimal_point=16"] if fixed else [])


# Tokens on which Python's int()/float() and numpy's string casts could
# disagree; the scanner's verdict is the contract.
ODD_TOKENS = ["1_0", "+5", "-0", "1.", ".5", "1E+05", "nan", "-nan", "inf", "-inf",
              "1e400", "-1e400", "1e-400", "0x10", "1.0", "9223372036854775807",
              "9223372036854775808", "-9223372036854775809", "2147483648", "1__0",
              "_1", "1_", "00", "0.1e1_0", "\u0663", "\uff15", "1e", "oops"]


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize("token", ODD_TOKENS)
def test_weight_reader_matches_token_scanner_on_odd_tokens(token, fixed):
    # [2, 2, 1]: 9 weights; the odd token sits on the second row
    rows = ["1 2", f"3 {token}", "5 6", "7", "8", "9"]
    text = "\n".join(header(fixed, [2, 2, 1]) + rows) + "\n"
    got, want = reader_outcomes(text, fixed, 9)
    assert got == want
    if want[0] == "range":
        assert want[1].startswith("line 6: ")            # the odd token's line
    elif isinstance(want[0], int):
        assert want[0] == (6 if fixed else 5)           # the odd token's line


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize(
    "body, line",
    [
        ("1 2\r\n3 4\r\n5 6\r\n7\r\n8\r\n9\r\n", None),
        ("1 2\x0c3 4\x0c5 6 7 8 9", None),
        ("1 2\x1c3 4\x1c5\x1d6\x1e7\x1f8\v9", None),
        ("\n\n1 2 3\n\n\n4 5 6 7 8 9\n\n", None),
        ("  1\t2 3 4 5 6 7 8 9  \n", None),
        ("1 2 3 4 5 6 7 8 9 10\n", 1),
        ("1 2 3 4 5 6 7 8\n\n", 2),
        ("1 2 3 4 5 6 7 8 9\n\n10\n", 3),
        ("", 0),
        # save_fann's layout, one line per source neuron, with one change
        ("1 2\n\n3 4\n5 6\n7\n8\n9\n", None),
        ("1 2\n3 4\n5 6\n \t\n7\n8\n9\n", None),
        ("1 2\n3 4\n5 6\n7\n8\n9\n\n\n", None),
        ("1 2\n3 4\n5 6\n7\n8\n9\n \n", None),
        ("1\n2 3 4\n5 6\n7\n8\n9\n", None),
        ("1 2\n3\xa04\n5 6\n7\n8\n9\n", None),
        ("1 2\n3 4\xa0\n5 6\n7\n8\n9\n", None),
        ("1 2\n3 4\x00\n5 6\n7\n8\n9\n", 2),
        ("1 2\n\x003 4\n5 6\n7\n8\n9\n", 2),
        ("1 2\n3\x004\n5 6\n7\n8\n9\n", 6),
    ],
    ids=["crlf", "form-feed", "separators", "blank-lines", "tabs",
         "one-too-many", "one-too-few", "extra-after-blank", "no-body",
         "rows-blank-in-matrix", "rows-blank-between", "rows-trailing-blanks",
         "rows-trailing-space-line", "rows-token-moved", "rows-nbsp", "rows-nbsp-trailing",
         "rows-nul-after-token", "rows-nul-before-token", "rows-nul-joins-tokens"],
)
def test_weight_reader_matches_token_scanner_on_layouts(body, line, fixed):
    head = header(fixed, [2, 2, 1])
    got, want = reader_outcomes("\n".join(head) + "\n" + body, fixed, 9)
    assert got == want
    if line is None:
        assert want[2] == np.arange(1, 10, dtype=want[0]).tobytes()
    else:
        assert want[0] == len(head) + line


def test_weight_reader_matches_token_scanner_on_random_files():
    seps = [" ", " ", " ", "  ", "\t", "\n", "\n", "\r\n", "\r", "\n\n", " \r\n\r\n ",
            "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\xa0"]
    rng = np.random.default_rng(67)
    kinds = set()
    for _ in range(1500):
        fixed = bool(rng.random() < 0.5)
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
        expected = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
        count = expected + int(rng.choice([0, 0, 0, 0, -1, 1]))
        odd = rng.random() < 0.5
        tokens = []
        for _ in range(max(count, 0)):
            if odd and rng.random() < 0.15:
                tokens.append(str(rng.choice(ODD_TOKENS)))
            elif fixed:
                tokens.append(str(int(rng.integers(-2**31, 2**31))))
            else:
                v = float(rng.normal(0.0, 1.0) * 10.0 ** int(rng.integers(-320, 300)))
                tokens.append(str(rng.choice([f"{v:.9g}", repr(v), f"{v:.3e}"])))
        body = "".join(str(rng.choice(seps)) + tok for tok in tokens)
        text = "\n".join(header(fixed, sizes)) + "\n" + body
        if rng.random() < 0.5:
            text += str(rng.choice(seps))
        got, want = reader_outcomes(text, fixed, expected)
        assert got == want, text
        if isinstance(want[0], np.dtype):
            kinds.add("ok")
        else:
            kinds.add("count" if "weights, found" in want[1] else want[1].split()[-1])
    # every verdict the scanner can give came up
    assert kinds == {"ok", "count", "integer", "number", "finite", "range"}


@pytest.mark.parametrize("token", ["2147483648", "-2147483649", "9223372036854775807"])
def test_fixed_weight_outside_int32_names_its_line(token):
    rows = ["1 2", f"3 {token}", "5 6", "7", "8", "9"]
    text = "\n".join(header(True, [2, 2, 1]) + rows) + "\n"
    with pytest.raises(FixedPointRangeError) as info:
        load_fann(text)
    assert str(info.value) == f"line 6: weight token '{token}' is outside the 32-bit range"
    edge = load_fann(text.replace(token, "-2147483648"))
    assert edge.weights[0][1, 1] == -(2**31)


def test_a_column_reaching_2_52_keeps_the_network_type_s_error():
    # 2^21 full-scale weights in one column, each token valid: no line is at
    # fault, so the reader's scan finds nothing and FixedPointNet's error stands
    text = (f"SWNET_FIX_1\nnum_layers=2\nlayer_sizes={2**21 - 1} 1\ndecimal_point=16\n"
            + "-2147483648\n" * 2**21)
    with pytest.raises(FixedPointRangeError) as exc:
        load_fann(text)
    assert str(exc.value) == "weight matrix 0: a column's absolute sum reaches 2^52"


def test_token_scan_holds_no_token_lists():
    # a fixed-point body the per-matrix reader does not take, refused at its
    # last token: the scan may hold the values array, not a list of tokens
    sizes, per_line = [1023, 64], 4
    tokens = ["-1234567"] * (1024 * 64)
    tokens[-1] = "x"
    lines = header(True, sizes) + [" ".join(tokens[i:i + per_line])
                                   for i in range(0, len(tokens), per_line)]
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            nn_core._scan_weights(lines, 4, len(tokens), True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.line, str(exc.value)) == (
        len(lines), f"line {len(lines)}: weight token 'x' is not a valid integer")
    assert peak < 3 * 8 * len(tokens)


def save_fann_per_value(model):
    """The text format written one value at a time: an f-string per float,
    an int() per fixed-point weight. The reference for save_fann."""
    fixed = isinstance(model, FixedPointNet)
    lines = [nn_core.TAG_FIXED if fixed else nn_core.TAG_FLOAT,
             f"num_layers={len(model.layer_sizes)}",
             "layer_sizes=" + " ".join(str(s) for s in model.layer_sizes)]
    if fixed:
        lines.append(f"decimal_point={model.qformat.frac_bits}")
    for w in model.weights:
        for row in w:
            if fixed:
                lines.append(" ".join(str(int(v)) for v in row))
            else:
                lines.append(" ".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def odd_floats(rng, shape):
    """Weights drawn from the values a %.9g formatter can get wrong."""
    n = int(np.prod(shape))
    tiny = np.finfo(np.float64).smallest_subnormal
    pools = [
        rng.uniform(-1.0, 1.0, n),
        rng.integers(-2**20, 2**20, n) * tiny,                         # subnormals
        np.where(rng.random(n) < 0.5, -0.0, 0.0),
        rng.uniform(0.1, 10.0, n) * 10.0 ** rng.choice([-300, -299, 299, 300], n)
        * rng.choice([-1.0, 1.0], n),
        # a 9-digit mantissa plus a trailing 5: rounds at the 9th digit
        np.array([float(f"{m}5e{e}") for m, e in zip(
            rng.integers(10**8, 10**9, n), rng.integers(-20, 20, n))]),
        rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),  # any bits
    ]
    v = np.choose(rng.integers(0, len(pools), n), pools)
    v[~np.isfinite(v)] = 1.0
    return v.reshape(shape)


def test_save_matches_per_value_formatter_and_round_trips():
    rng = np.random.default_rng(71)
    for trial in range(60):
        sizes = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5)))]
        shapes = [(a + 1, b) for a, b in zip(sizes, sizes[1:])]
        net = build_mlp(sizes, weights=[odd_floats(rng, sh) for sh in shapes])
        text = save_fann(net)
        assert text == save_fann_per_value(net)
        back = load_fann(text)
        for w, b in zip(net.weights, back.weights):
            want = np.array([float(f"{v:.9g}") for v in w.ravel()]).reshape(w.shape)
            assert b.tobytes() == want.tobytes()
        assert save_fann(back) == text
        again = load_fann(save_fann(back))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.weights, again.weights))

        # quantized mirrors of moderate weights, saturating ones included
        small = build_mlp(sizes, weights=[rng.uniform(-1.0, 1.0, sh)
                                          * 10.0 ** rng.integers(-6, 4, sh) for sh in shapes])
        frac_bits = (8, 16, 24)[trial % 3]
        fp = quantize(small, QFormat(frac_bits))
        text = save_fann(fp)
        assert text == save_fann_per_value(fp)
        back = load_fann(text)
        assert back.qformat == fp.qformat
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fp.weights, back.weights))
    for net in (build_network_a(4), build_network_b(4)):
        assert save_fann(net) == save_fann_per_value(net)


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize("row, col", [(0, 0), (2, 1), (5, 0)],
                         ids=["first-row", "bias-row", "last-matrix"])
@pytest.mark.parametrize("token", ODD_TOKENS)
def test_per_matrix_reader_matches_token_scanner_on_odd_tokens_anywhere(token, row, col, fixed):
    # save_fann's layout for [2, 2, 1]: rows 0-2 are the first matrix (row 2
    # its bias row), rows 3-5 the second
    rows = [["1", "2"], ["3", "4"], ["5", "6"], ["7"], ["8"], ["9"]]
    rows[row][col] = token
    head = header(fixed, [2, 2, 1])
    got, want = reader_outcomes("\n".join(head + [" ".join(r) for r in rows]) + "\n", fixed, 9)
    assert got == want
    line = len(head) + row + 1
    if want[0] == "range":
        assert want[1].startswith(f"line {line}: ")
    elif isinstance(want[0], int):
        assert want[0] == line


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
def test_save_fann_layout_goes_through_the_per_matrix_reader(fixed):
    rng = np.random.default_rng(73)
    sizes = [1, 8, 1, 12, 1, 9]                 # one- and many-column matrices
    shapes = [(a + 1, b) for a, b in zip(sizes, sizes[1:])]
    start = 4 if fixed else 3
    for _ in range(10):
        if fixed:
            model = quantize(build_mlp(sizes, weights=[
                rng.uniform(-1.0, 1.0, sh) * 10.0 ** rng.integers(-6, 4, sh) for sh in shapes
            ]), QFormat(16))
            ref = np.concatenate([w.ravel() for w in model.weights])
        else:
            model = build_mlp(sizes, weights=[odd_floats(rng, sh) for sh in shapes])
            ref = np.array([float(f"{v:.9g}") for w in model.weights for v in w.ravel()])
        text = save_fann(model)
        assert text == save_fann_per_value(model)
        flat = nn_core._read_rows(text.splitlines(), start, sizes, ref.dtype)
        assert flat is not None and flat.tobytes() == ref.tobytes()
        got, want = reader_outcomes(text, fixed, model.weight_count)
        assert got == want == (ref.dtype, ref.shape, ref.tobytes())
