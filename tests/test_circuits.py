"""Circuit builder tests: gate counts, parameter counts, family behavior."""

import hashlib
import math

import numpy as np
import pytest

from qccnn.circuits import (
    ANSATZ_KEYS,
    apply_postprocess,
    basic_entangling_layer,
    build_ansatz,
    higher_order_encoding_template,
    postprocess_derivative,
)
from qccnn.autodiff import readout_gradient
from qccnn.capacity import uniform_input_sampler
from qccnn.sim import (
    Circuit,
    GateOp,
    encode,
    readouts,
    run_deferred_batch,
    unitary,
)

from oracles import (
    deferred_circuit,
    deferred_ops,
    hadamard,
    jacobian_rank,
    param_shift_jacobian,
    z_expectations_oracle,
)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encoding_gate_count_and_order():
    ops = higher_order_encoding_template()
    assert len(ops) == 26  # 4 H + 4 RZ + 6 * (CNOT, RZ, CNOT)
    kinds = [op.kind for op in ops]
    assert kinds[:4] == ["H"] * 4
    assert kinds[4:8] == ["RZ"] * 4
    assert kinds[8:] == ["CNOT", "RZ", "CNOT"] * 6
    pair_targets = [op.input_idx for op in ops if op.input_idx and len(op.input_idx) == 2]
    assert pair_targets == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_encoding_zero_input_gives_plus_state():
    ops = tuple(higher_order_encoding_template())
    template = Circuit(4, ops, num_inputs=4, readout=(0, 1, 2, 3))
    z = run_deferred_batch(template, [], np.zeros((1, 4)))[0]
    np.testing.assert_allclose(z, np.zeros(4), atol=1e-15)
    # a second Hadamard layer maps |++++> back to |0000> only if every phase is
    # zero; no body runs H, so the test-side Hadamard applies it to the encoding
    state = encode(template, np.zeros((1, 4)))
    for q in range(4):
        hadamard(state, q)
    np.testing.assert_allclose(readouts(template, state)[0], np.ones(4), atol=1e-15)


def test_encoding_never_polarizes_z():
    # diagonal gates after H cannot move <Z> away from zero, for any input
    template = Circuit(4, tuple(higher_order_encoding_template()), num_inputs=4,
                       readout=(0, 1, 2, 3))
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.uniform(-1, 1, 4)
        z = run_deferred_batch(template, [], x[None])[0]
        np.testing.assert_allclose(z, np.zeros(4), atol=1e-12)
    z = run_deferred_batch(template, [], np.ones((1, 4)))[0]
    np.testing.assert_allclose(z, np.zeros(4), atol=1e-12)


def test_encoding_rejects_bad_inputs():
    template = Circuit(4, tuple(higher_order_encoding_template()), num_inputs=4, readout=(0,))
    with pytest.raises(ValueError, match="4 inputs"):
        run_deferred_batch(template, [], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="normalized"):
        run_deferred_batch(template, [], [[0.0, 0.0, 0.0, 1.5]])


def test_entangling_layer_structure():
    ops = basic_entangling_layer(0)
    assert [op.kind for op in ops] == ["RX"] * 4 + ["CNOT"] * 4
    assert [op.targets for op in ops[4:]] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert sorted(op.param_slot for op in ops[:4]) == [0, 1, 2, 3]


def test_entangling_layer_x_flip_propagates_through_ring():
    ops = [GateOp("RX", (q,), param_slot=q) for q in range(4)]
    ops += [GateOp("CNOT", pair) for pair in ((0, 1), (1, 2), (2, 3), (3, 0))]
    circuit = Circuit(4, tuple(ops), num_params=4, readout=(0, 1, 2, 3))
    theta = np.array([math.pi, 0.0, 0.0, 0.0])
    got = run_deferred_batch(circuit, theta, np.zeros((1, 0)))[0]
    np.testing.assert_allclose(got, z_expectations_oracle(circuit, theta), atol=1e-12)
    # X on q0 then CNOT chain flips q0, q1, q2, q3 in turn; ring closure flips q0 back
    np.testing.assert_allclose(got, [1.0, -1.0, -1.0, -1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

EXPECTED_PARAMS = {
    "conv": 4,
    "midcircuit-rx": 6,
    "midcircuit-ry": 6,
    "ancilla-cy": 4,
    "ancilla-cz": 4,
    "mod-a": 6,
    "mod-b": 12,
    "mod-c": 36,
    "select-sign": 4,
    "select-tanh": 4,
}


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_parameter_and_readout_counts(key):
    ansatz = build_ansatz(key)
    assert ansatz.num_params == EXPECTED_PARAMS[key]
    assert ansatz.num_readouts == (4 if key == "conv" else 1)
    assert ansatz.circuit.num_inputs == 4


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_outputs_stay_in_range(key):
    ansatz = build_ansatz(key)
    rng = np.random.default_rng(32)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        theta = rng.uniform(-math.pi, math.pi, ansatz.num_params)
        values = run_deferred_batch(ansatz.circuit, theta, x[None])[0]
        assert np.all(np.abs(values) <= 1 + 1e-12)
        post = apply_postprocess(ansatz.postprocess, values)
        assert np.all(np.abs(post) <= 1 + 1e-12)


def test_conv_zero_everything_gives_zero_maps():
    ansatz = build_ansatz("conv")
    out = run_deferred_batch(ansatz.circuit, np.zeros(4), np.zeros((1, 4)))[0]
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-14)


def test_midcircuit_zero_angles_reduce_to_encoding_plus_cnot():
    ansatz = build_ansatz("midcircuit-rx")
    template = higher_order_encoding_template() + [GateOp("CNOT", (2, 3))]
    reference = Circuit(4, tuple(template), num_inputs=4, readout=(3,))
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        got = run_deferred_batch(ansatz.circuit, np.zeros(6), x[None])[0]
        want = run_deferred_batch(reference, [], x[None])[0]
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_midcircuit_readout_is_q3():
    assert build_ansatz("midcircuit-rx").circuit.readout == (3,)


def test_ancilla_structure():
    circuit = build_ansatz("ancilla-cy").circuit
    assert circuit.num_qubits == 5
    assert circuit.readout == (4,)
    kinds = [op.kind for op in circuit.ops]
    assert kinds[0] == "H" and kinds[-1] == "H"
    assert kinds.count("CY") == 4
    controlled = [op.targets for op in circuit.ops if op.kind == "CY"]
    assert controlled == [(0, 4), (1, 4), (2, 4), (3, 4)]


_ANCILLA_KEYS = ("ancilla-cy", "ancilla-cz")


def test_ancilla_cy_equals_cz_everywhere():
    # Both variants compile to one 4-qubit program, so each is checked
    # against its own 5-qubit dense simulation, which holds the CY or CZ gates.
    circuits = [build_ansatz(key).circuit for key in _ANCILLA_KEYS]
    rng = np.random.default_rng(34)
    for _ in range(50):
        x = rng.uniform(-1, 1, 4)
        theta = rng.uniform(-math.pi, math.pi, 4)
        for circuit in circuits:
            got = run_deferred_batch(circuit, theta, x[None])[0][0]
            assert abs(got - z_expectations_oracle(circuit, theta, x)[0]) < 1e-12


def test_ancilla_zero_case_parity_of_cnot_ring_plus_state():
    for key in _ANCILLA_KEYS:
        circuit = build_ansatz(key).circuit
        out = run_deferred_batch(circuit, np.zeros(4), np.zeros((1, 4)))[0]
        want = z_expectations_oracle(circuit, np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(want, [0.0], atol=1e-14)
        np.testing.assert_allclose(out, want, atol=1e-14)


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_every_ansatz_simulates_four_qubits(key):
    # The ancilla's fifth qubit is folded into its readout signs; a circuit
    # edit that breaks the fold would bring back its 2**5-amplitude state.
    circuit = build_ansatz(key).circuit
    assert circuit.width == 4
    assert circuit.signs.shape == (len(circuit.readout), 16)


def test_modular_reduction_structure():
    circuit = build_ansatz("mod-a").circuit
    assert circuit.readout == (3,)
    pool_controls = [op.targets for op in circuit.ops if op.kind == "CRZ"]
    assert pool_controls == [(0, 1), (2, 3), (1, 3)]  # 4 -> 2 -> 1 qubits


def test_modular_zero_angle_case_matches_oracle():
    circuit = build_ansatz("mod-a").circuit
    rng = np.random.default_rng(35)
    x = rng.uniform(-1, 1, 4)
    got = run_deferred_batch(circuit, np.zeros(6), x[None])[0]
    np.testing.assert_allclose(got, z_expectations_oracle(circuit, np.zeros(6), x), atol=1e-12)


def test_qubit_select_reads_q2():
    assert build_ansatz("select-sign").circuit.readout == (2,)
    assert build_ansatz("select-tanh").postprocess == "tanh"


def test_registry_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown ansatz"):
        build_ansatz("select-relu")


# key -> sha256 of f"{repr(circuit)}|{postprocess}": any edit to a circuit's
# ops, counts, readout or postprocess, or to the key order, changes this table.
ANSATZ_PINS = {
    "conv": "5fae17e49d7b475fe511b1520075dd5d1fdf0e5ad4101a66c66368f7473a5a85",
    "midcircuit-rx": "4bd09c9d11d98775559454b85d7d0801c31d2c1eaf6faccfb8e6b8147a8b5904",
    "midcircuit-ry": "5435e8fb5731696347a420d54451a72252703672667be37561dc576080f65808",
    "ancilla-cy": "c51a513db8a7b32f7af966161b39734772eef2dae7363ed10b063b25cb13935d",
    "ancilla-cz": "414b34a807bd7ac677cebf2411a2c6dc52858ff6e7fbdba67a03c11e544060f6",
    "mod-a": "c450b61daf93ce5bf936ccd72fc78010612b791a1071440f539dc3377cf1d41f",
    "mod-b": "24066bf0e3cf74d3bdaf48198cf0b97b10b5ba25af81c4ce717ebf7933ad8a2f",
    "mod-c": "60e9ce08f408bbd6d1416e40c651b2f60830f1aa9d2134ae744cf32eb11a6368",
    "select-sign": "c08c595781e68d099796f7a28ae12e63d4eaf9ae519a12d46501801954fa7050",
    "select-tanh": "3986c3f3d746f8d95b132b3a20c351d9ddeabb525f5a7b193e12f70cb1737dfd",
}


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_ansatz_matches_its_pin(key):
    assert tuple(ANSATZ_PINS) == ANSATZ_KEYS
    ansatz = build_ansatz(key)
    text = f"{ansatz.circuit!r}|{ansatz.postprocess}"
    assert hashlib.sha256(text.encode()).hexdigest() == ANSATZ_PINS[key]


# key -> sha256 of repr(deferred_ops(circuit)), the ops every run executes:
# any edit to the deferral or to the ops it rewrites changes this table.
# The three keys without a measurement defer to the same `conv` ops.
DEFERRED_PINS = {
    "conv": "e89e91040acc5060b0a855e8d71696f3ad7a67b12ec31f6eab07f47a135e2019",
    "midcircuit-rx": "d0e674a1980fec0e824836592e9be07df035edcedd9f6e51b51391f6002c2e38",
    "midcircuit-ry": "33422a77eaae108dc71a28d5e5d3cb6c6369f2ae7712818ac16b1017e4113d95",
    "ancilla-cy": "d36b7593ae3706daa659a78e3e43de471199ad2c63cac6bce0bb2a9eec38eb41",
    "ancilla-cz": "e7d77cf2035bbde2f622112b424c48a2123834108c8286d2055ac582b3cf30d8",
    "mod-a": "0f4e8b0ff3326fa3f246a67c9e2380695cc47a70d53350f575c134497052536c",
    "mod-b": "eeca4388494da2e22c25861080e114dd3914ac136261e70351c2e633b796f2d0",
    "mod-c": "03f314061b4df2eb56c3be6ea59746520b4ef2edd07b59ec8801b9d9db0e092c",
    "select-sign": "e89e91040acc5060b0a855e8d71696f3ad7a67b12ec31f6eab07f47a135e2019",
    "select-tanh": "e89e91040acc5060b0a855e8d71696f3ad7a67b12ec31f6eab07f47a135e2019",
}


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_deferred_ops_match_their_pin(key):
    assert tuple(DEFERRED_PINS) == ANSATZ_KEYS
    text = repr(deferred_ops(build_ansatz(key).circuit))
    assert hashlib.sha256(text.encode()).hexdigest() == DEFERRED_PINS[key]


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_body_is_the_suffix_of_the_deferred_ops(key):
    # The circuit's own rewrite, which runs, against the oracle's.  An
    # ancilla circuit's parity gadget, CY/CZ from each data qubit onto q4 and
    # then H(q4), is folded into its readout signs: the body plus that tail
    # is the suffix.
    circuit = build_ansatz(key).circuit
    body, ops = circuit.body, deferred_ops(circuit)
    tail = ()
    if key in _ANCILLA_KEYS:
        tail = tuple(GateOp(key[-2:].upper(), (q, 4)) for q in range(4)) + (GateOp("H", (4,)),)
    assert circuit.width == circuit.num_qubits - bool(tail)
    assert body and ops[len(ops) - len(body) - len(tail):] == body + tail


# ---------------------------------------------------------------------------
# rank audit: the readout jacobian's rank and its dead parameters
# ---------------------------------------------------------------------------

# key -> (rank of d<readouts>/d theta over inputs, parameters whose gradient
# is zero at every input and theta).  The rank is a property of the circuit
# structure: e.g. the ancilla frame reads <Z0 Z1 Z2 Z3> after the entangling
# layer, which its CNOT ring maps back to Z0 Z2, so only RX(theta0) and
# RX(theta2) act on the readout.
_RANKS = {
    "conv": (4, ()),
    "midcircuit-rx": (6, ()),
    "midcircuit-ry": (6, ()),
    "ancilla-cy": (2, (1, 3)),
    "ancilla-cz": (2, (1, 3)),
    "mod-a": (4, (0, 4)),
    "mod-b": (11, (10,)),
    "mod-c": (26, (7, 19, 31, 34)),
    "select-sign": (3, (3,)),
    "select-tanh": (3, (3,)),
}


def _readout_jacobian(circuit, theta, xs, num_readouts):
    """(rows * readouts, params) jacobian of every readout at every input row."""
    blocks = []
    params = np.tile(theta, (len(xs), 1))
    for j in range(num_readouts):
        weights = np.zeros((len(xs), num_readouts))
        weights[:, j] = 1.0
        state = unitary(circuit, [theta])[0] @ encode(circuit, xs)
        pair = np.stack((state, np.empty_like(state)))  # readout_gradient writes λ to [1]
        blocks.append(readout_gradient(circuit, params, weights, pair))
    return np.concatenate(blocks)


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_readout_jacobian_rank_and_dead_parameters(key):
    assert set(_RANKS) == set(ANSATZ_KEYS)
    rank, dead = _RANKS[key]
    ansatz = build_ansatz(key)
    rng = np.random.default_rng(70)
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, ansatz.num_params)
        xs = uniform_input_sampler(rng, 32)
        jac = _readout_jacobian(ansatz.circuit, theta, xs, ansatz.num_readouts)
        assert jacobian_rank(jac) == rank
        scale = np.abs(jac).max()
        assert tuple(np.flatnonzero(np.abs(jac).max(axis=0) < 1e-12 * scale)) == dead
        # A few rows against the dense parameter-shift jacobian.
        deferred = deferred_circuit(ansatz.circuit)
        for r in (0, 17):
            want = param_shift_jacobian(deferred, theta, xs[r])
            np.testing.assert_allclose(jac[r :: len(xs)], want.T, atol=1e-12)


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------


def test_sign_values():
    assert apply_postprocess("sign", -0.3) == -1
    assert apply_postprocess("sign", 0.0) == 0
    assert apply_postprocess("sign", 0.7) == 1


def test_tanh_values():
    assert apply_postprocess("tanh", 0.0) == 0.0
    expected = (math.e - 1 / math.e) / (math.e + 1 / math.e)
    assert abs(apply_postprocess("tanh", 1.0) - expected) < 1e-12
    assert abs(apply_postprocess("tanh", 1.0) - 0.76159) < 1e-5


def test_postprocess_derivatives():
    values = np.array([-0.5, 0.0, 0.8])
    np.testing.assert_allclose(postprocess_derivative("identity", values), np.ones(3))
    np.testing.assert_allclose(postprocess_derivative("sign", values), np.zeros(3))
    np.testing.assert_allclose(
        postprocess_derivative("tanh", values), 1 - np.tanh(values) ** 2
    )


@pytest.mark.parametrize("fn", [apply_postprocess, postprocess_derivative])
def test_unknown_postprocess_rejected(fn):
    with pytest.raises(ValueError, match="unknown postprocess"):
        fn("relu", np.zeros(2))
