"""Adjoint gradients against the parameter-shift oracle, finite differences and closed forms."""

import math

import numpy as np
import pytest

from qccnn.autodiff import readout_gradient, summed_readout_gradient
from qccnn.circuits import ANSATZ_KEYS, build_ansatz
from qccnn import sim
from qccnn.nn import ClassicalConvLayer, QuantumConvLayer
from qccnn.sim import (
    Circuit,
    GateOp,
    encode,
    run_deferred_batch,
    unitary,
)

from oracles import (
    deferred_circuit,
    encoded_random_circuit,
    finite_difference_gradient,
    param_shift_jacobian,
    random_circuit,
    shift_rule,
)


def _rx_circuit():
    return Circuit(1, (GateOp("RX", (0,), param_slot=0),), num_params=1, readout=(0,))


def _final_state(circuit, theta, xs):
    """The final state of every row of `xs` at one θ."""
    return unitary(circuit, [theta])[0] @ encode(circuit, xs)


def _pair(state):
    """A (2**n, rows) final state as the top half of the (2, 2**n, rows) pair
    readout_gradient walks; it writes lambda into the bottom half."""
    return np.stack((state, np.empty_like(state)))


def _adjoint(circuit, theta, weights, xs):
    """readout_gradient at one θ, given to every row of `xs`."""
    params = np.tile(theta, (len(xs), 1))
    return readout_gradient(circuit, params, weights, _pair(_final_state(circuit, theta, xs)))


def _gradient(circuit, params, readout_index=0, inputs=None):
    """d<Z_j>/d theta for one readout at one (1, num_inputs) input row."""
    if inputs is None:
        inputs = np.zeros((1, 0))
    weights = np.zeros((1, len(circuit.readout)))
    weights[0, readout_index] = 1.0
    return _adjoint(circuit, params, weights, inputs)[0]


def test_rx_gradient_closed_form():
    circuit = _rx_circuit()
    assert abs(_gradient(circuit, [0.0])[0]) < 1e-15
    assert abs(_gradient(circuit, [math.pi / 2])[0] + 1.0) < 1e-14
    theta = 0.37
    assert abs(_gradient(circuit, [theta])[0] + math.sin(theta)) < 1e-13


def test_controlled_rotation_closed_form():
    # <Z1> of CRX(t) with control in |+>: (1 + cos t)/2 + 1/2 ... derivative -sin(t)/2
    ops = (GateOp("H", (0,)), GateOp("CRX", (0, 1), param_slot=0))
    circuit = Circuit(2, ops, num_params=1, readout=(1,))
    theta = 0.81
    got = _gradient(circuit, [theta])[0]
    assert abs(got + math.sin(theta) / 2) < 1e-13


def test_oracle_shift_rule_selection():
    assert len(shift_rule("RX")) == 2
    assert len(shift_rule("CRY")) == 4
    with pytest.raises(ValueError):
        shift_rule("CNOT")


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_parameter_shift_matches_finite_differences(key):
    # Checks the parameter-shift oracle, and the adjoint, against central differences.
    ansatz = build_ansatz(key)
    circuit = ansatz.circuit
    rng = np.random.default_rng(41)
    for _ in range(3):
        x = rng.uniform(-1, 1, 4)
        theta = rng.uniform(-math.pi, math.pi, ansatz.num_params)
        jac = param_shift_jacobian(deferred_circuit(circuit), theta, x)
        for readout_index in range(ansatz.num_readouts):
            fd = finite_difference_gradient(
                lambda p: run_deferred_batch(circuit, p, x[None])[0][readout_index], theta
            )
            for got in (jac[:, readout_index], _gradient(circuit, theta, readout_index, x[None])):
                err = np.abs(got - fd)
                tol = np.maximum(1e-4 * np.maximum(np.abs(got), np.abs(fd)), 1e-7)
                assert np.all(err < tol), f"{key}: worst error {err.max():.2e}"


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_adjoint_matches_parameter_shift_oracle(key):
    ansatz = build_ansatz(key)
    rng = np.random.default_rng(50)
    xs = rng.uniform(-1, 1, (7, 4))
    theta = rng.uniform(-math.pi, math.pi, ansatz.num_params)
    weights = rng.normal(size=(7, ansatz.num_readouts))
    got = _adjoint(ansatz.circuit, theta, weights, xs)
    assert got.shape == (7, ansatz.num_params)
    deferred = deferred_circuit(ansatz.circuit)
    for r in range(7):
        want = param_shift_jacobian(deferred, theta, xs[r]) @ weights[r]
        np.testing.assert_allclose(got[r], want, rtol=0, atol=1e-12)


def test_adjoint_matches_parameter_shift_oracle_on_random_circuits():
    # Random circuits draw every gate kind on every qubit pair order.
    rng = np.random.default_rng(51)
    for _ in range(6):
        circuit = random_circuit(rng, num_qubits=4, depth=20)
        theta = rng.uniform(-math.pi, math.pi, circuit.num_params)
        weights = rng.normal(size=(3, 4))
        inputs = np.zeros((3, 0))
        got = _adjoint(circuit, theta, weights, inputs)
        want = weights @ param_shift_jacobian(circuit, theta).T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gradient_on_undeferred_equals_deferred():
    circuit = build_ansatz("midcircuit-rx").circuit
    rng = np.random.default_rng(42)
    x = rng.uniform(-1, 1, 4)
    theta = rng.uniform(-math.pi, math.pi, 6)
    direct = _gradient(circuit, theta, 0, x[None])
    explicit = _gradient(deferred_circuit(circuit), theta, 0, x[None])
    np.testing.assert_allclose(direct, explicit, atol=1e-14)


def test_shared_slot_accumulates_contributions():
    # two RX gates on the same slot: f = <Z> = cos(2t), df/dt = -2 sin(2t)
    ops = (GateOp("RX", (0,), param_slot=0), GateOp("RX", (0,), param_slot=0))
    circuit = Circuit(1, ops, num_params=1, readout=(0,))
    theta = 0.53
    got = _gradient(circuit, [theta])[0]
    assert abs(got + 2 * math.sin(2 * theta)) < 1e-13


def test_gradient_batch_matches_per_row():
    ansatz = build_ansatz("mod-b")
    rng = np.random.default_rng(43)
    xs = rng.uniform(-1, 1, (7, 4))
    theta = rng.uniform(-math.pi, math.pi, ansatz.num_params)
    weights = rng.normal(size=(7, 1))
    batch = _adjoint(ansatz.circuit, theta, weights, xs)
    assert batch.shape == (7, 12)
    for i, x in enumerate(xs):
        single = _adjoint(ansatz.circuit, theta, weights[i : i + 1], x[None])[0]
        np.testing.assert_allclose(batch[i], single, atol=1e-13)


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_per_row_params_equal_stacked_vector_calls(key):
    # Per-row parameters, one group per row, let one call walk blocks of
    # unequal size at different θ; it must reproduce one call per block, at
    # that block's θ on each of its rows, bit for bit.  The gates are
    # elementwise, but BLAS and numpy's reductions can round a row
    # differently with the row count of the call (a 1-row call does), so
    # the block sizes are fixed here.
    circuit = build_ansatz(key).circuit
    rng = np.random.default_rng(47)
    sizes = (2, 3, 5)
    bounds = np.cumsum((0,) + sizes)
    xs = rng.uniform(-1, 1, (bounds[-1], circuit.num_inputs))
    thetas = rng.uniform(-math.pi, math.pi, (len(sizes), circuit.num_params))
    weights = rng.normal(size=(bounds[-1], len(circuit.readout)))
    blocks = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    grad = readout_gradient(circuit, np.repeat(thetas, sizes, axis=0), weights, _pair(np.hstack(
        [_final_state(circuit, t, xs[b]) for t, b in zip(thetas, blocks)])))
    block_grads = [_adjoint(circuit, t, weights[b], xs[b]) for t, b in zip(thetas, blocks)]
    np.testing.assert_array_equal(grad, np.vstack(block_grads))


@pytest.mark.parametrize("groups", [1, 2, 5, 10])
@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_group_rows_equal_the_same_rows_repeated_over_each_block(key, groups):
    # Group g's parameter row serves its block of 10 // groups consecutive
    # rows; repeating it over the block, one group per row, gives the same
    # gradient to the bit.
    circuit = build_ansatz(key).circuit
    rng = np.random.default_rng(48)
    rows = 10
    xs = rng.uniform(-1, 1, (rows, circuit.num_inputs))
    thetas = rng.uniform(-math.pi, math.pi, (groups, circuit.num_params))
    weights = rng.normal(size=(rows, len(circuit.readout)))
    encoded, u = encode(circuit, xs), unitary(circuit, thetas)
    block = rows // groups
    state = np.hstack([u[g] @ encoded[:, g * block : (g + 1) * block] for g in range(groups)])
    grouped = readout_gradient(circuit, thetas, weights, _pair(state))
    per_row = readout_gradient(circuit, np.repeat(thetas, block, axis=0), weights, _pair(state))
    np.testing.assert_array_equal(grouped, per_row)


@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (3, 4), (0, 4), (1, 4, 4), (4, 4, 1), (4,)])
def test_params_of_wrong_shape_rejected(shape):
    # select-tanh takes P = 4 parameters; the batch below has 4 rows, so the
    # parameters must be a (groups, 4) matrix with groups 1, 2 or 4: not the
    # wrong P, not a group count that does not divide the rows, not 3-D, and
    # not one (P,) vector.
    circuit = build_ansatz("select-tanh").circuit
    state = _pair(_final_state(circuit, np.zeros(4), np.zeros((4, 4))))
    with pytest.raises(ValueError, match="parameter matrix"):
        readout_gradient(circuit, np.zeros(shape), np.ones((4, 1)), state)


def test_input_free_circuit_gives_one_row_per_weight_row():
    theta = 0.37
    inputs = np.zeros((3, 0))
    got = _adjoint(_rx_circuit(), [theta], np.ones((3, 1)), inputs)
    assert got.shape == (3, 1)
    np.testing.assert_array_equal(got, np.repeat(got[:1], 3, axis=0))
    assert abs(got[0, 0] + math.sin(theta)) < 1e-13
    weights = np.array([[2.0], [0.0], [-1.0]])
    scaled = _adjoint(_rx_circuit(), [theta], weights, inputs)
    np.testing.assert_allclose(scaled[:, 0], np.array([2.0, 0.0, -1.0]) * got[0, 0], atol=1e-15)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (3, 1, 1), (2, 1)])
def test_weights_shape_mismatch_rejected(shape):
    ansatz = build_ansatz("select-tanh")
    xs = np.zeros((3, 4))
    state = _pair(_final_state(ansatz.circuit, np.zeros(4), xs))
    with pytest.raises(ValueError, match="does not match"):
        readout_gradient(ansatz.circuit, np.zeros((3, 4)), np.ones(shape), state)


def test_state_of_wrong_shape_or_layout_rejected():
    ansatz = build_ansatz("select-tanh")
    xs = np.zeros((3, 4))
    state = _pair(_final_state(ansatz.circuit, np.zeros(4), xs))
    for bad in (state[:, :8].copy(), state.T.copy().T, state.real.copy(), state[0].copy()):
        with pytest.raises(ValueError, match="state must be"):
            readout_gradient(ansatz.circuit, np.zeros((3, 4)), np.ones((3, 1)), bad)
    # The rows are the state's columns: two of them do not fit three weight rows.
    with pytest.raises(ValueError, match="does not match"):
        readout_gradient(ansatz.circuit, np.zeros((2, 4)), np.ones((3, 1)), state[..., :2].copy())


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_half_angle_runs_once_per_unitary_and_once_per_walk(key, monkeypatch):
    # Every rotation takes its cos/sin from one table per call; no ansatz
    # body has a constant angle, which would take its own scalar pair.
    calls = []
    half_angle = sim._half_angle
    monkeypatch.setattr(sim, "_half_angle", lambda t: calls.append(np.shape(t)) or half_angle(t))
    circuit = build_ansatz(key).circuit
    rng = np.random.default_rng(49)
    params = rng.uniform(-math.pi, math.pi, (3, circuit.num_params))
    xs = rng.uniform(-1, 1, (6, circuit.num_inputs))
    encoded = encode(circuit, xs)
    calls.clear()  # the encoding's own pass
    u = unitary(circuit, params)
    assert calls == [params.shape]
    calls.clear()
    state = _pair(np.hstack([u[g] @ encoded[:, 2 * g : 2 * g + 2] for g in range(3)]))
    readout_gradient(circuit, params, np.ones((6, len(circuit.readout))), state)
    assert calls == [params.shape]
    calls.clear()
    summed_readout_gradient(circuit, params, np.ones((3, 6, len(circuit.readout))), u, encoded)
    assert calls == [params.shape]


def _summed_and_per_row(circuit, params, xs, weights):
    """The kernel-batched summed gradient, and each kernel's per-row gradient summed over rows."""
    encoded, u = encode(circuit, xs), unitary(circuit, params)
    before = (encoded.copy(), u.copy())
    summed = summed_readout_gradient(circuit, params, weights, u, encoded)
    # The encoding and the matrices are read, not overwritten.
    np.testing.assert_array_equal(encoded, before[0])
    np.testing.assert_array_equal(u, before[1])
    per_row = [_adjoint(circuit, theta, w, xs).sum(axis=0) for theta, w in zip(params, weights)]
    return summed, np.array(per_row)


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_summed_gradient_equals_per_row_sum_for_ansatz(key):
    rng = np.random.default_rng(50)
    ansatz = build_ansatz(key)
    params = rng.uniform(-math.pi, math.pi, (4, ansatz.num_params))
    xs = rng.uniform(-1, 1, (40, 4))
    weights = rng.normal(size=(4, 40, ansatz.num_readouts))
    summed, per_row = _summed_and_per_row(ansatz.circuit, params, xs, weights)
    assert summed.shape == (4, ansatz.num_params)
    np.testing.assert_allclose(summed, per_row, atol=1e-12)


def test_summed_gradient_equals_per_row_sum_for_random_circuits():
    rng = np.random.default_rng(51)
    for _ in range(20):
        circuit = encoded_random_circuit(rng, num_qubits=int(rng.integers(2, 6)),
                                         depth=int(rng.integers(5, 30)))
        params = rng.uniform(-math.pi, math.pi, (4, circuit.num_params))
        xs = rng.uniform(-1, 1, (int(rng.integers(1, 50)), circuit.num_inputs))
        weights = rng.normal(size=(4, len(xs), len(circuit.readout)))
        summed, per_row = _summed_and_per_row(circuit, params, xs, weights)
        np.testing.assert_allclose(summed, per_row, atol=1e-12)


def test_summed_gradient_rejects_what_rows_do_not_share():
    circuit = build_ansatz("select-tanh").circuit
    encoded = encode(circuit, np.zeros((3, 4)))
    u = unitary(circuit, np.zeros((2, 4)))
    for bad in (np.zeros(4), np.zeros((2, 5)), np.zeros((2, 1, 4))):
        with pytest.raises(ValueError, match="parameter matrix"):
            summed_readout_gradient(circuit, bad, np.ones((2, 3, 1)), u, encoded)
    # Rows share the ops from the first parameterised one: no input angle
    # may follow it, which the template checks when it is built.
    ops = (GateOp("H", (0,)), GateOp("RX", (0,), param_slot=0),
           GateOp("RZ", (0,), input_idx=(0,)))
    with pytest.raises(ValueError, match="input angle follows"):
        Circuit(1, ops, num_params=1, num_inputs=1, readout=(0,))


def test_summed_gradient_rejects_bad_weights_or_state():
    circuit = build_ansatz("select-tanh").circuit
    params = np.zeros((2, 4))
    encoded = encode(circuit, np.zeros((3, 4)))
    u = unitary(circuit, params)
    for shape in [(3, 1), (1, 3, 1), (2, 3, 2), (2, 3, 1, 1)]:
        with pytest.raises(ValueError, match="weights shape"):
            summed_readout_gradient(circuit, params, np.ones(shape), u, encoded)
    for bad in (u[:1], u[:, :8]):
        with pytest.raises(ValueError, match="unitaries shape"):
            summed_readout_gradient(circuit, params, np.ones((2, 3, 1)), bad, encoded)
    for bad in (encoded[:, :2].copy(), encoded.T.copy().T, encoded.real.copy()):
        with pytest.raises(ValueError, match="state must be"):
            summed_readout_gradient(circuit, params, np.ones((2, 3, 1)), u, bad)


def test_backward_linearity_and_weighting():
    ansatz = build_ansatz("select-tanh")
    rng = np.random.default_rng(44)
    xs = rng.uniform(-1, 1, (5, 4))
    theta = rng.uniform(-math.pi, math.pi, 4)
    w1 = rng.normal(size=(5, 1))
    w2 = rng.normal(size=(5, 1))
    g1, g2, g12 = (_adjoint(ansatz.circuit, theta, w, xs) for w in (w1, w2, w1 + w2))
    np.testing.assert_allclose(g12, g1 + g2, atol=1e-12)


def _layer(key, xs, theta):
    """Quantum conv layer with `theta` in kernel 0, run forward on one 2x2 image per patch row."""
    layer = QuantumConvLayer(build_ansatz(key), rng=np.random.default_rng(0))
    layer.params[0] = theta
    layer.forward(xs.reshape(-1, 2, 2))
    return layer


def _kernel0_upstream(values):
    """Feature-map sensitivities that are `values` on kernel 0's map and zero elsewhere."""
    upstream = np.zeros((len(values), 4, 1, 1))
    upstream[:, 0, 0, 0] = values
    return upstream


def test_layer_backward_zero_upstream_gives_zero():
    rng = np.random.default_rng(45)
    xs = rng.uniform(-1, 1, (4, 4))
    theta = rng.uniform(-math.pi, math.pi, 4)
    layer = _layer("select-tanh", xs, theta)
    grads = layer.backward(np.zeros((4, 4, 1, 1)))["kernels"]
    np.testing.assert_array_equal(grads, np.zeros((4, 4)))


def test_layer_backward_single_patch_equals_scaled_gradient():
    rng = np.random.default_rng(46)
    x = rng.uniform(-1, 1, (1, 4))
    theta = rng.uniform(-math.pi, math.pi, 6)
    layer = _layer("midcircuit-rx", x, theta)
    grads = layer.backward(_kernel0_upstream([2.5]))["kernels"]
    expected = 2.5 * _gradient(layer.ansatz.circuit, theta, 0, x)
    np.testing.assert_allclose(grads[0], expected, atol=1e-12)
    np.testing.assert_array_equal(grads[1:], 0.0)


def test_layer_backward_tanh_chain_rule():
    rng = np.random.default_rng(47)
    x = rng.uniform(-1, 1, (1, 4))
    theta = rng.uniform(-math.pi, math.pi, 4)
    layer = _layer("select-tanh", x, theta)
    raw = run_deferred_batch(layer.ansatz.circuit, theta, x)[0, 0]
    grads = layer.backward(_kernel0_upstream([1.0]))["kernels"]
    expected = (1 - math.tanh(raw) ** 2) * _gradient(layer.ansatz.circuit, theta, 0, x)
    np.testing.assert_allclose(grads[0], expected, atol=1e-12)


def test_layer_backward_sign_gradient_is_zero():
    rng = np.random.default_rng(48)
    xs = rng.uniform(-1, 1, (3, 4))
    theta = rng.uniform(-math.pi, math.pi, 4)
    layer = _layer("select-sign", xs, theta)
    grads = layer.backward(rng.normal(size=(3, 4, 1, 1)))["kernels"]
    np.testing.assert_array_equal(grads, np.zeros((4, 4)))


@pytest.mark.parametrize("front", ["select-tanh", "classical"])
def test_layer_backward_shape_mismatch_rejected(front):
    rng = np.random.default_rng(0)
    layer = (ClassicalConvLayer(rng=rng) if front == "classical"
             else QuantumConvLayer(build_ansatz(front), rng=rng))
    with pytest.raises(RuntimeError, match="before forward"):
        layer.backward(np.zeros((3, 4, 1, 1)))
    rng = np.random.default_rng(49)
    layer.forward(rng.uniform(-1, 1, (3, 2, 2)))
    with pytest.raises(ValueError, match="does not match"):
        layer.backward(np.zeros((1, 4, 1, 1)))  # would broadcast over the batch axis
