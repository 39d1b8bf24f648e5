"""Network construction, inference, training, footprint, serialization."""

import math

import numpy as np
import pytest

from stresswatch import (
    Activation,
    DivergenceError,
    LayerSpec,
    NetworkModel,
    ParseError,
    ShapeError,
    build_mlp,
    build_network_a,
    build_network_b,
    classify,
    footprint,
    infer_float,
    load_fann,
    mse_gradients,
    mse_loss,
    save_fann,
    train,
)


def naive_forward(net, x):
    """Independent scalar-loop oracle for the forward pass."""
    act = [float(v) for v in x]
    for mat, spec in zip(net.weights, net.layers[1:]):
        nxt = []
        for j in range(mat.shape[1]):
            s = float(mat[-1, j])  # bias row is last
            for i, a in enumerate(act):
                s += a * float(mat[i, j])
            nxt.append(math.tanh(s) if spec.activation is Activation.TANH else s)
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


def test_weight_matrix_shapes_validated():
    layers = (LayerSpec(2, Activation.LINEAR), LayerSpec(3, Activation.TANH))
    with pytest.raises(ShapeError):
        NetworkModel(layers, (np.zeros((2, 3)),))  # needs (2+1) x 3
    with pytest.raises(ShapeError):
        NetworkModel(layers, (np.full((3, 3), np.nan),))


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
        for w, spec in zip(net.weights, net.layers[1:]):
            z = a @ w[:-1] + w[-1]
            a = np.tanh(z) if spec.activation is Activation.TANH else z
        return a

    rng = np.random.default_rng(17)
    nets = [
        build_network_a(seed=4),
        build_mlp([3, 7, 2], seed=5, output_activation=Activation.LINEAR),
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


def test_classify_is_argmax():
    net = build_network_a(seed=3)
    x = np.array([0.2, -0.4, 0.9, 0.0, -0.1])
    assert classify(net, x) == int(np.argmax(infer_float(net, x)))


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
                up = mse_loss(NetworkModel(net.layers, tuple(w_plus)), ds)
                dn = mse_loss(NetworkModel(net.layers, tuple(w_minus)), ds)
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


@pytest.mark.filterwarnings("ignore:overflow")
def test_training_divergence_names_epoch():
    # a linear output lets the loss actually blow up; tanh would clamp it
    net = build_mlp([2, 4, 1], seed=0, output_activation=Activation.LINEAR)
    with pytest.raises(DivergenceError) as exc:
        train(net, xor_dataset(), epochs=500, learning_rate=10.0)
    assert exc.value.epoch >= 0
    assert "epoch" in str(exc.value)


def test_train_rejects_bad_shapes():
    net = build_mlp([2, 4, 1], seed=0)
    with pytest.raises(ShapeError):
        train(net, [(np.zeros(3), np.zeros(1))], epochs=1, learning_rate=0.1)
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


def test_save_rejects_linear_output():
    net = build_mlp([2, 2], output_activation=Activation.LINEAR)
    with pytest.raises(ValueError):
        save_fann(net)


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
