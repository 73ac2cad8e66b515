"""Hybrid model tests: layers vs oracles, loss, Adam, end-to-end training."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qccnn.data import Dataset, extract_patches, generate_synthetic, SyntheticSpec
from qccnn.nn import (
    AdamState,
    ClassicalConvLayer,
    DenseLayer,
    HybridModel,
    QuantumConvLayer,
    adam_step,
    evaluate,
    fit,
    make_model,
    softmax_cross_entropy,
)
from qccnn import sim
from qccnn.autodiff import readout_gradient
from qccnn.circuits import ANSATZ_KEYS, apply_postprocess, build_ansatz, postprocess_derivative

from oracles import (
    deferred_circuit,
    finite_difference_gradient,
    param_shift_jacobian,
    z_expectations_oracle,
)


# ---------------------------------------------------------------------------
# quantum conv layer
# ---------------------------------------------------------------------------


def test_quantum_conv_shapes_pooling_family():
    layer = QuantumConvLayer(build_ansatz("mod-a"), stride=2, rng=np.random.default_rng(0))
    assert layer.num_kernels == 4
    maps = layer.forward(np.zeros((2, 6, 6)))
    assert maps.shape == (2, 4, 3, 3)


def test_quantum_conv_shapes_single_patch():
    layer = QuantumConvLayer(build_ansatz("conv"), stride=2, rng=np.random.default_rng(0))
    assert layer.num_kernels == 1  # four readouts make the four maps
    maps = layer.forward(np.zeros((1, 2, 2)))
    assert maps.shape == (1, 4, 1, 1)


def test_quantum_conv_28x28_patch_arithmetic():
    layer = QuantumConvLayer(build_ansatz("select-tanh"), stride=2, rng=np.random.default_rng(0))
    maps = layer.forward(np.zeros((1, 28, 28)))
    assert maps.shape == (1, 4, 14, 14)  # 196 patches


def test_quantum_conv_zero_everything_conv_family():
    layer = QuantumConvLayer(build_ansatz("conv"), stride=2, rng=np.random.default_rng(0))
    layer.params[...] = 0.0
    maps = layer.forward(np.zeros((1, 4, 4)))
    np.testing.assert_allclose(maps, np.zeros((1, 4, 2, 2)), atol=1e-14)


def test_quantum_conv_rejects_small_image():
    layer = QuantumConvLayer(build_ansatz("conv"), stride=2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="smaller"):
        layer.forward(np.zeros((1, 1, 1)))


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_shared_encoding_forward_and_backward_are_exact(key):
    # Each kernel acts on the shared encoding as one matrix, which rounds
    # differently from a gate-by-gate simulation, so the layer is checked
    # against the dense-matrix readouts and parameter-shift jacobian of every
    # patch and kernel.  Two 2x4 images give two patches each.
    rng = np.random.default_rng(60)
    images = rng.uniform(-1.0, 1.0, (2, 2, 4))
    layer = QuantumConvLayer(build_ansatz(key), stride=2, rng=rng)
    circuit = deferred_circuit(layer.circuit)  # the dense oracles take no measurement
    maps = layer.forward(images)
    upstream = rng.normal(size=maps.shape)
    grads = layer.backward(upstream)["kernels"]
    np.testing.assert_array_equal(layer.backward(upstream)["kernels"], grads)  # cache kept
    post = layer.ansatz.postprocess
    readouts = layer.ansatz.num_readouts
    want_grads = np.zeros_like(grads)
    for b, image in enumerate(images):
        for p, patch in enumerate(extract_patches(image[None], 2)):
            for k in range(layer.num_kernels):
                raw = z_expectations_oracle(circuit, layer.params[k], patch)
                feats = slice(k * readouts, (k + 1) * readouts)
                np.testing.assert_allclose(
                    maps[b, feats, 0, p], apply_postprocess(post, raw), atol=1e-12
                )
                w = upstream[b, feats, 0, p] * postprocess_derivative(post, raw)
                jac = param_shift_jacobian(circuit, layer.params[k], patch)
                want_grads[k] += jac @ w
    np.testing.assert_allclose(grads, want_grads, atol=1e-12)
    if post == "sign":
        np.testing.assert_array_equal(grads, 0.0)


def _count_shapes(monkeypatch) -> dict:
    """Record the state view shape of every gate the simulator and the adjoint walk apply."""
    shapes = {"sim": [], "walk": []}

    def counting(name, apply):
        def wrapped(psi, *args):
            shapes[name].append(psi.shape)
            return apply(psi, *args)
        return wrapped

    apply = sim._apply_kind
    monkeypatch.setattr(sim, "_apply_kind", counting("sim", apply))
    monkeypatch.setattr("qccnn.autodiff._apply_kind", counting("walk", apply))
    return shapes


@pytest.mark.parametrize("key", ["conv", "ancilla-cz", "mod-c", "select-tanh"])
def test_layer_encodes_once_per_forward_and_never_in_backward(key, monkeypatch):
    shapes = _count_shapes(monkeypatch)
    circuit = build_ansatz(key).circuit
    body = len(circuit.body)
    rng = np.random.default_rng(61)
    layer = QuantumConvLayer(build_ansatz(key), stride=2, rng=rng)
    n = circuit.width  # 4 for every key: the ancilla's q4 is folded into its signs
    assert n == 4
    kernels = layer.num_kernels
    for images in (1, 3):
        layer.params += 0.1  # a new parameter version: the kernels' matrices are rebuilt
        layer.forward(rng.uniform(-1.0, 1.0, (images, 4, 4)))
        # The encoding runs the phase program and applies no gate; the body
        # runs once, on the 2**n identity columns of every kernel's matrix at
        # once: kernels * 2**n columns, one group of 2**n per kernel.
        assert shapes["sim"] == [(2,) * n + (kernels, 1 << n)] * body
        assert shapes["walk"] == []
        shapes["sim"].clear()
        layer.backward(rng.normal(size=(images, 4, 2, 2)))
        # The backward simulates nothing, and one walk undoes every op after
        # the first parameterised one, one kernel call each, on the one
        # (2, 2**n, kernels * 2**n) buffer whose halves hold every kernel's
        # M and I: its stack axis is one more qubit, above the circuit's.
        assert shapes == {"sim": [], "walk": [(2,) * (n + 1) + (kernels, 1 << n)] * (body - 1)}
        shapes["walk"].clear()


def test_layer_builds_kernel_matrices_once_per_parameter_version(monkeypatch):
    built = []
    monkeypatch.setattr("qccnn.nn.unitary", lambda c, p: built.append(1) or sim.unitary(c, p))
    rng = np.random.default_rng(63)
    layer = QuantumConvLayer(build_ansatz("mod-b"), stride=2, rng=rng)
    images = rng.uniform(-1.0, 1.0, (2, 4, 4))
    first = layer.forward(images)
    np.testing.assert_array_equal(layer.forward(images), first)
    assert len(built) == 1
    # Adam updates the parameters in place: the next forward rebuilds, once.
    grads = layer.backward(rng.normal(size=first.shape))
    adam_step(layer.parameters(), grads, AdamState(lr=0.01))
    updated = layer.forward(images)
    layer.forward(images[:1])
    assert len(built) == 2
    fresh = QuantumConvLayer(build_ansatz("mod-b"), stride=2, rng=rng)
    fresh.params[...] = layer.params
    np.testing.assert_array_equal(fresh.forward(images), updated)


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_circuit_defers_once_across_layer_and_readout_gradient(key, monkeypatch):
    built = build_ansatz(key)
    calls = []
    compile_prefix = sim._compile_prefix
    monkeypatch.setattr(sim, "_compile_prefix",
                        lambda *args: calls.append(args) or compile_prefix(*args))
    # A fresh instance defers and splits its ops when it is built, in one
    # walk that compiles the prefix once and builds no second Circuit.
    circuit = replace(built.circuit)
    assert len(calls) == 1
    calls.clear()
    rng = np.random.default_rng(62)
    layer = QuantumConvLayer(replace(built, circuit=circuit), stride=2, rng=rng)
    for _ in range(2):
        maps = layer.forward(rng.uniform(-1.0, 1.0, (2, 4, 4)))
    layer.backward(rng.normal(size=maps.shape))
    inputs = rng.uniform(-1.0, 1.0, (3, circuit.num_inputs))
    state = sim.unitary(circuit, layer.params[:1])[0] @ sim.encode(circuit, inputs)
    pair = np.stack((state, np.empty_like(state)))  # readout_gradient writes λ to [1]
    params = np.repeat(layer.params[:1], 3, axis=0)
    readout_gradient(circuit, params, np.ones((3, len(circuit.readout))), pair)
    assert calls == []
    # The stored deferral and split change neither equality, the hash nor the repr.
    assert circuit == built.circuit and hash(circuit) == hash(built.circuit)
    assert repr(circuit) == repr(built.circuit)


# ---------------------------------------------------------------------------
# classical conv layer
# ---------------------------------------------------------------------------


def test_classical_conv_top_left_filter():
    layer = ClassicalConvLayer(stride=2, rng=np.random.default_rng(0))
    layer.filters[...] = 0.0
    layer.filters[0] = [[1.0, 0.0], [0.0, 0.0]]
    image = np.arange(16, dtype=float).reshape(1, 4, 4) / 16.0
    maps = layer.forward(image)
    np.testing.assert_allclose(maps[0, 0], image[0, ::2, ::2], atol=1e-15)


def test_classical_conv_zero_filters_constant_bias():
    layer = ClassicalConvLayer(stride=1, rng=np.random.default_rng(0))
    layer.filters[...] = 0.0
    layer.bias[:] = [0.1, -0.2, 0.3, 0.0]
    maps = layer.forward(np.random.default_rng(1).normal(size=(1, 5, 5)))
    for f in range(4):
        np.testing.assert_allclose(maps[0, f], np.full((4, 4), layer.bias[f]), atol=1e-15)


def test_classical_conv_matches_nested_loop_oracle():
    rng = np.random.default_rng(2)
    layer = ClassicalConvLayer(stride=1, rng=rng)
    image = rng.normal(size=(4, 4))
    maps = layer.forward(image[None])
    for f in range(4):
        for i in range(3):
            for j in range(3):
                want = (image[i : i + 2, j : j + 2] * layer.filters[f]).sum() + layer.bias[f]
                assert abs(maps[0, f, i, j] - want) < 1e-12


# ---------------------------------------------------------------------------
# dense head and loss
# ---------------------------------------------------------------------------


def test_dense_zero_weights_returns_bias():
    layer = DenseLayer(4)
    layer.weights[...] = 0.0
    layer.bias[:] = [0.3, -0.7]
    np.testing.assert_allclose(layer.forward(np.ones((1, 4))), [[0.3, -0.7]])


def test_dense_matches_matmul_oracle():
    rng = np.random.default_rng(3)
    layer = DenseLayer(6, rng=rng)
    feats = rng.normal(size=(5, 6))
    np.testing.assert_allclose(
        layer.forward(feats), feats @ layer.weights.T + layer.bias, atol=1e-12
    )


def test_softmax_cross_entropy_symmetric_case():
    losses, grads = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert abs(losses[0] - math.log(2)) < 1e-12
    np.testing.assert_allclose(grads[0], [-0.5, 0.5], atol=1e-12)


def test_softmax_cross_entropy_confident_case():
    losses, _ = softmax_cross_entropy(np.array([[10.0, -10.0]]), np.array([0]))
    assert abs(losses[0] - math.log1p(math.exp(-20))) < 1e-15
    assert 2.0e-9 < losses[0] < 2.1e-9


def test_softmax_cross_entropy_gradient_vs_finite_difference():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=2)
    _, grads = softmax_cross_entropy(logits[None], np.array([1]))
    fd = finite_difference_gradient(
        lambda l: softmax_cross_entropy(l[None], np.array([1]))[0][0], logits, h=1e-6
    )
    np.testing.assert_allclose(grads[0], fd, atol=1e-8)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.3, -0.7])}
    adam_step(params, grads, AdamState(lr=0.001))
    np.testing.assert_allclose(params["w"], [1.0 - 0.001, -2.0 + 0.001], atol=1e-6)


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([0.5])}
    adam_step(params, {"w": np.array([0.0])}, AdamState())
    np.testing.assert_allclose(params["w"], [0.5], atol=1e-15)


def test_adam_three_step_trace_matches_hand_rolled():
    # scalar quadratic f(x) = x^2, gradient 2x, plain-Python reference
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x_ref, m, v = 1.0, 0.0, 0.0
    trace = []
    for t in range(1, 4):
        g = 2.0 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(x_ref)

    params = {"x": np.array([1.0])}
    state = AdamState(lr=lr)
    for t in range(3):
        adam_step(params, {"x": 2.0 * params["x"]}, state)
        assert abs(params["x"][0] - trace[t]) < 1e-10


# ---------------------------------------------------------------------------
# end-to-end model
# ---------------------------------------------------------------------------


def _toy_dataset(n=8, size=4, seed=5):
    rng = np.random.default_rng(seed)
    images = rng.uniform(-1, 1, (n, size, size))
    labels = rng.integers(0, 2, n)
    return Dataset(images, labels)


@pytest.mark.parametrize("front", ["classical", "conv", "midcircuit-ry", "select-tanh", "mod-a"])
def test_end_to_end_gradient_check(front):
    data = _toy_dataset(n=2)
    model = make_model(front, (4, 4), stride=2, seed=0)
    loss, _, grads = model.loss_and_grads(data.images, data.labels)

    def loss_at(flat, name):
        params = model.parameters()
        saved = params[name].copy()
        params[name][...] = flat.reshape(params[name].shape)
        value = model.loss_and_grads(data.images, data.labels)[0]
        params[name][...] = saved
        return value

    for name, grad in grads.items():
        fd = finite_difference_gradient(
            lambda f: loss_at(f, name), model.parameters()[name].ravel()
        ).reshape(grad.shape)
        scale = np.maximum(np.abs(fd), 1e-6)
        rel = np.abs(grad - fd) / scale
        assert rel.max() < 1e-4, f"{front}/{name}: worst rel err {rel.max():.2e}"


def test_feature_map_shape_identity_across_fronts():
    shapes = set()
    for front in ("classical", "conv", "mod-b"):
        model = make_model(front, (6, 6), stride=2, seed=0)
        maps = model.front.forward(np.zeros((1, 6, 6)))
        shapes.add(maps.shape)
    assert shapes == {(1, 4, 3, 3)}


class _PatchSumFront:
    """A front with only the members the model may use: map f at each 2x2
    patch is gain[f] times the patch's pixel sum."""

    stride = 2
    meta = {"front": "patch-sum", "relu": False}

    def __init__(self):
        self.gain = np.array([1.0, -0.5, 2.0, 0.25])

    def forward(self, images):
        b, h, w = images.shape
        self._sums = images.reshape(b, h // 2, 2, w // 2, 2).sum(axis=(2, 4))
        return self.gain[None, :, None, None] * self._sums[:, None]

    def backward(self, upstream):
        d_maps = upstream.reshape(len(self._sums), 4, *self._sums.shape[1:])
        return {"gain": np.einsum("bfij,bij->f", d_maps, self._sums)}

    def parameters(self):
        return {"gain": self.gain}


def test_model_composes_any_front_through_its_interface():
    data = _toy_dataset(n=3)
    front = _PatchSumFront()
    model = HybridModel(front, (4, 4), rng=np.random.default_rng(0))
    _, _, grads = model.loss_and_grads(data.images, data.labels)
    assert list(grads) == ["head_weights", "head_bias", "gain"]
    assert model.parameters()["gain"] is front.gain  # live, so Adam updates the front

    def loss_at(gain):
        front.gain = gain
        return model.loss_and_grads(data.images, data.labels)[0]

    gain = front.gain
    fd = finite_difference_gradient(loss_at, gain)
    front.gain = gain
    np.testing.assert_allclose(grads["gain"], fd, rtol=1e-6, atol=1e-10)
    state = model.state_dict()
    assert (state["front"], state["relu"], state["stride"]) == ("patch-sum", False, 2)
    assert list(state["params"]) == list(grads)
    clone = HybridModel(_PatchSumFront(), (4, 4), rng=np.random.default_rng(1))
    clone.load_state_dict(state)
    np.testing.assert_array_equal(clone.forward(data.images), model.forward(data.images))


@pytest.mark.parametrize("front", [*ANSATZ_KEYS, "classical"])
def test_group_order_is_head_then_front(front):
    # Perfbench's gradient check draws one random probe direction per group
    # in this order, so reordering the groups would change its probes.
    data = _toy_dataset(n=2)
    model = make_model(front, (4, 4), stride=2, seed=0)
    front_groups = ["filters", "conv_bias"] if front == "classical" else ["kernels"]
    want = ["head_weights", "head_bias", *front_groups]
    params = model.parameters()
    assert list(params) == want
    assert list(model.loss_and_grads(data.images, data.labels)[2]) == want
    for name, arr in model.front.parameters().items():
        assert params[name] is arr


def test_evaluation_independent_of_batch_partitioning():
    data = _toy_dataset(n=10)
    model = make_model("classical", (4, 4), seed=1)
    acc_a, loss_a = evaluate(model, data, batch_size=3)
    acc_b, loss_b = evaluate(model, data, batch_size=10)
    assert acc_a == acc_b
    assert abs(loss_a - loss_b) < 1e-12


def test_fit_deterministic_given_seed():
    train, val = generate_synthetic(SyntheticSpec(train_n=20, val_n=10))
    results = []
    for _ in range(2):
        model = make_model("classical", train.image_shape, seed=3)
        results.append(fit(model, train, val, epochs=3, batch_size=4, seed=3))
    assert results[0].train_loss == results[1].train_loss
    assert results[0].val_acc == results[1].val_acc


def test_fit_epoch_metrics_length():
    train, val = generate_synthetic(SyntheticSpec(train_n=12, val_n=6))
    model = make_model("classical", train.image_shape, seed=0)
    result = fit(model, train, val, epochs=4, batch_size=4, seed=0)
    assert result.epochs_run == 4
    assert len(result.val_loss) == 4


def test_fit_rejects_empty_dataset():
    train, val = generate_synthetic(SyntheticSpec(train_n=4, val_n=2))
    empty = Dataset(np.zeros((0, 8, 8)), np.zeros(0, dtype=int))
    model = make_model("classical", (8, 8), seed=0)
    with pytest.raises(ValueError, match="empty"):
        fit(model, empty, val, epochs=1)


def test_checkpoint_round_trip():
    model = make_model("mod-a", (4, 4), seed=7)
    state = model.state_dict()
    clone = make_model("mod-a", (4, 4), seed=8)
    clone.load_state_dict(state)
    image = np.random.default_rng(9).uniform(-1, 1, (1, 4, 4))
    np.testing.assert_array_equal(model.forward(image), clone.forward(image))
