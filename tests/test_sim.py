"""Statevector simulator tests: gates, expectations, batching; the shot-sampling oracle."""

import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from qccnn.circuits import ANSATZ_KEYS, build_ansatz
from qccnn.sim import (
    ROTATION_KINDS,
    SINGLE_QUBIT_KINDS,
    Circuit,
    GateOp,
    MidMeasure,
    _apply_kind,
    _resolve_angle,
    _rotations,
    _state_view,
    encode,
    readouts,
    run_deferred_batch,
    unitary,
)

from oracles import (
    circuit_unitary,
    deferred_circuit,
    deferred_ops,
    encoded_random_circuit,
    gate_unitary,
    input_free_matrices,
    random_circuit,
    sample_shots,
    z_expectations_oracle,
)

SQRT2_INV = 1 / math.sqrt(2)


def _zero(n):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


def _gate(state, kind, targets, theta=None):
    """One gate through the production kernel, in place on a (2**n, rows) state.

    Each row is its own parameter group: `theta` is a scalar or one angle
    per row, passed as the rotation :func:`_rotations` forms from a
    (rows, 1) parameter matrix.
    """
    n = state.shape[0].bit_length() - 1
    rotation = None if theta is None else _rotations(
        (GateOp(kind, targets, param_slot=0),), np.reshape(theta, (-1, 1)))[0]
    _apply_kind(state.reshape((2,) * n + (-1, 1)), kind, targets, rotation)


def _apply(amps, kind, targets, theta=None):
    """One gate through the production kernel, on a copy of `amps`.

    `amps` is one amplitude vector or an amplitude-major (2**n, rows) batch,
    the simulator's own layout.
    """
    state = np.array(amps, dtype=complex)
    _gate(state, kind, targets, theta)
    return state


# ---------------------------------------------------------------------------
# single gates
# ---------------------------------------------------------------------------


def test_hadamard_on_zero():
    amps = _apply(_zero(1), "H", (0,))
    np.testing.assert_allclose(amps, [SQRT2_INV, SQRT2_INV], atol=1e-15)


def test_rx_pi_on_zero():
    amps = _apply(_zero(1), "RX", (0,), math.pi)
    np.testing.assert_allclose(amps, [0, -1j], atol=1e-15)


def test_cnot_flips_target_when_control_set():
    # little-endian: qubit 0 is the least significant bit
    amps = _apply(_zero(2), "X", (0,))  # |01> = index 1
    amps = _apply(amps, "CNOT", (0, 1))  # -> |11> = index 3
    np.testing.assert_allclose(amps, [0, 0, 0, 1], atol=1e-15)


_CONTROLLED = ("CRX", "CRY", "CRZ", "CNOT", "CY", "CZ")
_GATE_CASES = (
    [pytest.param(k, (1,), 1, id=k) for k in ("RX", "RY", "RZ")]
    + [pytest.param(k, (2, 0), 1, id=k) for k in _CONTROLLED]
    + [pytest.param(k, (1,), 1, id=k) for k in ("H", "X")]
    + [pytest.param(k, (0, 2), 1, id=f"{k}-control-below") for k in _CONTROLLED]
    + [
        pytest.param(k, t, 3, id=f"{k}-3-rows")
        for k, t in (("H", (1,)), ("RX", (0,)), ("RY", (1,)), ("RZ", (2,)),
                     ("CY", (0, 2)), ("CRX", (2, 0)), ("CRY", (0, 2)), ("CRZ", (1, 0)))
    ]
)


@pytest.mark.parametrize("kind, targets, rows", _GATE_CASES)
def test_every_gate_matches_dense_matrix(kind, targets, rows):
    # One amplitude column per row; with 3 rows each gets its own angle.
    rng = np.random.default_rng(zlib.crc32(f"{kind}{targets}{rows}".encode()))
    n = 3
    angles = [None] * rows
    theta = None
    if kind in ROTATION_KINDS:
        angles = [float(a) for a in rng.uniform(-math.pi, math.pi, rows)]
        theta = angles[0] if rows == 1 else np.array(angles)
    amps = rng.normal(size=(8, rows)) + 1j * rng.normal(size=(8, rows))
    amps /= np.linalg.norm(amps, axis=0)
    got = _apply(amps, kind, targets, theta)
    for r, angle in enumerate(angles):
        want = gate_unitary(kind, targets, n, angle) @ amps[:, r]
        np.testing.assert_allclose(got[:, r], want, atol=1e-13)


def _two_half_gate(psi, kind, targets, c, s):
    """One gate by the two-half formulas, on a (2,)*n + (groups, columns) view.

    The target-0 and target-1 halves (the control-1 half's, for a controlled
    kind) are read into copies a and b and written back whole; `c` and `s`
    are the (groups, 1) cos/sin of the half angle.
    """
    n = psi.ndim - 2
    index = [slice(None)] * n
    base = {"CNOT": "X", "CY": "Y", "CZ": "Z", "CRX": "RX", "CRY": "RY", "CRZ": "RZ"}
    if kind in base:
        index[n - 1 - targets[0]] = 1
    halves = []
    for bit in (0, 1):
        index[n - 1 - targets[-1]] = bit
        halves.append(tuple(index))
    a, b = (psi[i].copy() for i in halves)
    psi[halves[0]], psi[halves[1]] = {
        "H": lambda: ((a + b) * SQRT2_INV, (a - b) * SQRT2_INV),
        "X": lambda: (b, a),
        "Y": lambda: (-1j * b, 1j * a),
        "Z": lambda: (a, b * -1.0),
        "RX": lambda: (c * a - 1j * s * b, c * b - 1j * s * a),
        "RY": lambda: (c * a - s * b, c * b + s * a),
        "RZ": lambda: (a * (c - 1j * s), b * (c + 1j * s)),
    }[base.get(kind, kind)]()


_STACK_CASES = (
    [pytest.param(k, (q,), id=f"{k}-{q}") for k in sorted(SINGLE_QUBIT_KINDS) for q in (0, 2)]
    + [pytest.param(k, (2, 0), id=f"{k}-control-above") for k in _CONTROLLED]
    + [pytest.param(k, (0, 2), id=f"{k}-control-below") for k in _CONTROLLED]
)


@pytest.mark.parametrize("kind, targets", _STACK_CASES)
def test_stacked_pair_takes_each_gate_as_each_state_alone(kind, targets):
    # The adjoint walk stacks phi and lambda as a (2, 2**n, columns) pair
    # and views the stack as one more qubit above the circuit's, so each
    # gate is one kernel call on both.  That call must equal the two-half
    # formulas applied to each state alone, to the bit: the amplitudes and
    # angles hold zeros of both signs, and tobytes tells them apart.
    rng = np.random.default_rng(zlib.crc32(f"{kind}{targets}".encode()))
    n, groups, cols = 3, 3, 2
    circuit = Circuit(n, ())
    shape = (2, 1 << n, groups * cols)
    pair = np.empty(shape, dtype=complex)
    for part in (pair.real, pair.imag):
        part[...] = rng.choice([0.0, -0.0, 1.0, -1.0], shape) * rng.uniform(0.5, 2.0, shape)
    params = np.array([[0.0], [-0.0], [rng.uniform(-math.pi, math.pi)]])
    rotation = None
    if kind in ROTATION_KINDS:
        rotation = _rotations((GateOp(kind, targets, param_slot=0),), params)[0]
    want = pair.copy()
    for state in want:
        _two_half_gate(_state_view(circuit, state, (groups, cols)), kind, targets,
                       np.cos(params * 0.5), np.sin(params * 0.5))
    _apply_kind(_state_view(circuit, pair, (groups, cols), stacked=True), kind, targets, rotation)
    assert pair.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_expectation_z_basis_states():
    def z_after(*ops):
        return run_deferred_batch(Circuit(1, ops, readout=(0,)), [], np.zeros((1, 0)))[0][0]

    assert z_after() == 1.0
    assert z_after(GateOp("X", (0,))) == -1.0
    assert abs(z_after(GateOp("H", (0,)))) < 1e-15


def test_expectation_z_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, (), readout=(1,))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, (GateOp("H", (2,)),), readout=(0,))


# ---------------------------------------------------------------------------
# circuit validation
# ---------------------------------------------------------------------------


def test_circuit_rejects_unreferenced_slot():
    with pytest.raises(ValueError, match="never referenced"):
        Circuit(1, (GateOp("RX", (0,), param_slot=0),), num_params=2, readout=(0,))


def test_circuit_rejects_condition_before_measure():
    ops = (GateOp("RX", (0,), param_slot=0, condition=0), MidMeasure(1, 0))
    with pytest.raises(ValueError, match="before it is assigned"):
        Circuit(2, ops, num_params=1, readout=(0,))


def test_circuit_rejects_duplicate_classical_bit():
    ops = (MidMeasure(0, 0), MidMeasure(1, 0))
    with pytest.raises(ValueError, match="assigned twice"):
        Circuit(2, ops, readout=(1,))


def test_gateop_rejects_bad_arity_and_angle_sources():
    with pytest.raises(ValueError):
        GateOp("H", (0, 1))
    with pytest.raises(ValueError):
        GateOp("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateOp("RX", (0,))  # no angle source
    with pytest.raises(ValueError):
        GateOp("RX", (0,), param_slot=0, angle=0.1)  # two sources
    with pytest.raises(ValueError):
        GateOp("H", (0,), angle=0.1)


def test_gateop_rejects_rzz():
    # The encoding writes ZZ phases as CNOT / RZ / CNOT; there is no RZZ kind.
    with pytest.raises(ValueError, match="unknown gate kind"):
        GateOp("RZZ", (0, 1), angle=0.1)


# ---------------------------------------------------------------------------
# deterministic execution
# ---------------------------------------------------------------------------


def test_run_deferred_rx_readout():
    circuit = Circuit(1, (GateOp("RX", (0,), param_slot=0),), num_params=1, readout=(0,))
    no_inputs = np.zeros((1, 0))
    np.testing.assert_allclose(run_deferred_batch(circuit, [0.0], no_inputs)[0], [1.0], atol=1e-15)
    np.testing.assert_allclose(
        run_deferred_batch(circuit, [math.pi / 2], no_inputs)[0], [0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        run_deferred_batch(circuit, [1.1], no_inputs)[0], [math.cos(1.1)], atol=1e-14
    )


def test_signs_hold_each_readouts_z_sign_per_basis_state():
    # Row j is readout j's (-1)^bit, little-endian: qubit 2 flips basis states 4-7.
    circuit = Circuit(3, (GateOp("H", (0,)),), readout=(2, 0))
    np.testing.assert_array_equal(circuit.signs, [[1, 1, 1, 1, -1, -1, -1, -1],
                                                  [1, -1, 1, -1, 1, -1, 1, -1]])
    assert circuit.signs.dtype == float and not circuit.signs.flags.writeable
    assert Circuit(3, (GateOp("H", (0,)),)).signs.shape == (0, 8)


def test_run_deferred_param_length_checked():
    circuit = Circuit(1, (GateOp("RX", (0,), param_slot=0),), num_params=1, readout=(0,))
    with pytest.raises(ValueError, match="parameters"):
        run_deferred_batch(circuit, [0.1, 0.2], np.zeros((1, 0)))


def test_random_circuits_match_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        circuit = random_circuit(rng, num_qubits=4, depth=int(rng.integers(5, 30)))
        params = rng.uniform(-math.pi, math.pi, circuit.num_params)
        got = run_deferred_batch(circuit, params, np.zeros((1, 0)))[0]
        want = z_expectations_oracle(circuit, params)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_norm_preserved_by_random_deep_circuits():
    rng = np.random.default_rng(12)
    for _ in range(10):
        circuit = random_circuit(rng, num_qubits=5, depth=50)
        params = rng.uniform(-math.pi, math.pi, circuit.num_params)
        amps = _zero(5)
        for op in circuit.ops:
            theta = None if op.param_slot is None else params[op.param_slot]
            amps = _apply(amps, op.kind, op.targets, theta)
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_inputs_resolved_like_baked_constants():
    rng = np.random.default_rng(13)
    ops = (
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        GateOp("RZ", (0,), input_idx=(0,)),
        GateOp("RZ", (1,), input_idx=(0, 1)),
        GateOp("RX", (0,), param_slot=0),
    )
    circuit = Circuit(2, ops, num_params=1, num_inputs=2, readout=(0, 1))
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        theta = rng.uniform(-math.pi, math.pi, 1)
        baked_ops = [
            GateOp(op.kind, op.targets, angle=math.pi * float(np.prod(x[list(op.input_idx)])))
            if op.input_idx else op
            for op in ops
        ]
        baked = Circuit(2, tuple(baked_ops), num_params=1, readout=(0, 1))
        via_inputs = run_deferred_batch(circuit, theta, x[None])[0]
        via_baked = run_deferred_batch(baked, theta, np.zeros((1, 0)))[0]
        np.testing.assert_allclose(via_inputs, via_baked, atol=1e-14)
        np.testing.assert_allclose(via_inputs, z_expectations_oracle(circuit, theta, x), atol=1e-12)


def test_inputs_outside_range_rejected():
    circuit = Circuit(
        1, (GateOp("H", (0,)), GateOp("RZ", (0,), input_idx=(0,))), num_inputs=1, readout=(0,)
    )
    with pytest.raises(ValueError, match="normalized"):
        run_deferred_batch(circuit, [], [[1.5]])
    with pytest.raises(ValueError, match="requires"):
        run_deferred_batch(circuit, [], np.zeros((1, 0)))


@pytest.mark.parametrize("inputs", [np.zeros(1), np.zeros(0), np.zeros((1, 1, 1))],
                         ids=["vector", "empty-vector", "3-d"])
def test_inputs_not_a_matrix_rejected(inputs):
    # One input shape: (rows, num_inputs), also for a single row.
    circuit = Circuit(
        1, (GateOp("H", (0,)), GateOp("RZ", (0,), input_idx=(0,))), num_inputs=1, readout=(0,)
    )
    with pytest.raises(ValueError, match=r"\(rows, 1\) matrix"):
        run_deferred_batch(circuit, [], inputs)


def test_batch_rows_match_single_runs():
    rng = np.random.default_rng(14)
    ops = tuple(
        [GateOp("H", (q,)) for q in range(3)]
        + [GateOp("RZ", (q,), input_idx=(q,)) for q in range(3)]
        + [GateOp("RX", (q,), param_slot=q) for q in range(3)]
        + [GateOp("CNOT", (0, 1)), GateOp("CNOT", (1, 2))]
    )
    circuit = Circuit(3, ops, num_params=3, num_inputs=3, readout=(0, 1, 2))
    params = rng.uniform(-math.pi, math.pi, 3)
    xs = rng.uniform(-1, 1, (17, 3))
    batch = run_deferred_batch(circuit, params, xs)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(
            batch[i], run_deferred_batch(circuit, params, x[None])[0], atol=1e-14
        )


def test_deterministic_repeat_calls_bit_identical():
    rng = np.random.default_rng(15)
    circuit = random_circuit(rng, num_qubits=4, depth=25)
    params = rng.uniform(-math.pi, math.pi, circuit.num_params)
    first = run_deferred_batch(circuit, params, np.zeros((1, 0)))[0]
    second = run_deferred_batch(circuit, params, np.zeros((1, 0)))[0]
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# the parameterised suffix as one matrix
# ---------------------------------------------------------------------------


def _folded_tail(circuit) -> int:
    """How many deferred ops at the end a folded parity gadget takes: its CY/CZ gates and H.

    0 unless the circuit runs on fewer qubits than it declares.
    """
    if circuit.width == circuit.num_qubits:
        return 0
    ops, t = deferred_ops(circuit), circuit.width
    k = len(ops) - 1
    assert ops[k] == GateOp("H", (t,))
    while ops[k - 1].kind in ("CY", "CZ") and ops[k - 1].targets[1] == t:
        k -= 1
    return len(ops) - k


def _check_kernel_unitaries(circuit, params, xs):
    """Kernel k's matrix times the encoding is the dense oracle's final state at params[k].

    A circuit with a folded parity gadget (the ancilla ansatze) runs on
    ``circuit.width`` qubits, without the top one: its final state is the
    dense oracle's state before the gadget, in which the top qubit is |+>
    and factors out, and its readouts are the dense oracle's.
    """
    u = unitary(circuit, params)
    dim = 1 << circuit.width
    assert u.shape == (len(params), dim, dim)
    encoded = encode(circuit, xs)
    deferred = deferred_circuit(circuit)
    tail = _folded_tail(circuit)
    before = replace(deferred, ops=deferred.ops[: len(deferred.ops) - tail])
    for k, theta in enumerate(params):
        fixed = input_free_matrices(deferred, theta)
        np.testing.assert_allclose(u[k].conj().T @ u[k], np.eye(dim), atol=1e-12)
        want = np.stack([circuit_unitary(before, theta, x)[:, 0] for x in xs], axis=1)
        if tail:  # the top qubit is the most significant bit: its |+> splits want in equal halves
            np.testing.assert_allclose(want[dim:], want[:dim], atol=1e-12)
            want = want[:dim] * math.sqrt(2.0)
        np.testing.assert_allclose(u[k] @ encoded, want, atol=1e-12)
        np.testing.assert_allclose(
            readouts(circuit, u[k] @ encoded),
            [z_expectations_oracle(deferred, theta, x, fixed) for x in xs], rtol=0, atol=1e-12)


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_unitary_times_encoding_is_final_state_for_ansatz(key):
    rng = np.random.default_rng(16)
    circuit = build_ansatz(key).circuit
    for kernels in (1, 4):
        params = rng.uniform(-math.pi, math.pi, (kernels, circuit.num_params))
        _check_kernel_unitaries(circuit, params, rng.uniform(-1, 1, (9, 4)))


def test_unitary_times_encoding_is_final_state_for_random_circuits():
    rng = np.random.default_rng(17)
    for _ in range(20):
        circuit = encoded_random_circuit(rng, num_qubits=int(rng.integers(2, 6)),
                                         depth=int(rng.integers(5, 30)))
        params = rng.uniform(-math.pi, math.pi, (int(rng.integers(1, 5)), circuit.num_params))
        _check_kernel_unitaries(circuit, params, rng.uniform(-1, 1, (5, circuit.num_inputs)))


def test_unitary_rejects_params_that_are_not_a_kernel_matrix():
    circuit = build_ansatz("mod-a").circuit
    for shape in [(6,), (4, 5), (4, 1, 6)]:
        with pytest.raises(ValueError, match=r"\(groups, 6\) parameter matrix"):
            unitary(circuit, np.zeros(shape))


def test_unitary_rejects_input_angle_after_first_parameter():
    # The template rejects such a circuit when it is built, so no unitary
    # ever depends on the inputs.
    ops = (GateOp("H", (0,)), GateOp("RX", (0,), param_slot=0),
           GateOp("RZ", (0,), input_idx=(0,)))
    with pytest.raises(ValueError, match="input angle follows"):
        Circuit(1, ops, num_params=1, num_inputs=1, readout=(0,))


@pytest.mark.parametrize("gate", [
    GateOp("CZ", (0, 1)),
    GateOp("RY", (0,), angle=0.3),
    GateOp("H", (0,)),  # a Hadamard on a touched qubit ends the prefix too
    GateOp("CNOT", (0, 1)),  # the frame is not the identity at the input angle
    GateOp("X", (0,)),
    GateOp("RZ", (0,), angle=0.3),  # only an input angle is a prefix phase
    GateOp("H", (2,)),  # a Hadamard after a phase, on a fresh qubit
], ids=["CZ", "RY", "H-touched", "open-frame", "X", "RZ-constant", "H-late"])
def test_input_angle_outside_the_prefix_rejected(gate):
    # The test above covers an input angle after a parameterised op.
    ops = (GateOp("H", (0,)), GateOp("H", (1,)), GateOp("RZ", (0,), input_idx=(0,)), gate,
           GateOp("RZ", (1,), input_idx=(0,)), GateOp("RX", (0,), param_slot=0))
    with pytest.raises(ValueError, match="input angle follows"):
        Circuit(3, ops, num_params=1, num_inputs=1, readout=(0,))


# ---------------------------------------------------------------------------
# the encoding prefix as a phase program
# ---------------------------------------------------------------------------


def _prefix_gate_by_gate(circuit, xs):
    """The deferred ops before ``circuit.body`` run gate by gate through the production kernels.

    They run on ``circuit.width`` qubits.  Where a parity gadget is folded,
    the prefix's one op on the top qubit must be its Hadamard, which leaves
    that qubit in |+> apart from the rest, so it is left out.
    """
    ops = deferred_ops(circuit)
    n = circuit.width
    state = np.zeros((1 << n, len(xs)), dtype=complex)
    state[0] = 1.0
    for op in ops[: len(ops) - _folded_tail(circuit) - len(circuit.body)]:
        if max(op.targets) >= n:
            assert op == GateOp("H", (n,))
            continue
        _gate(state, op.kind, op.targets,
              _resolve_angle(op, xs) if op.kind in ROTATION_KINDS else None)
    return state


def _assert_same_bits(got, want):
    """Equal values, and equal bits wherever the amplitude is not zero.

    Gates also multiply and move the zero amplitudes that no Hadamard
    reaches, which can leave a signed zero there.
    """
    np.testing.assert_array_equal(got, want)
    reached = want != 0
    np.testing.assert_array_equal(got[reached].view(np.uint64), want[reached].view(np.uint64))


def _edge_inputs(rng, rows, num_inputs):
    """Uniform inputs with rows of 0, -0 and +-1, where a signed zero could differ."""
    xs = rng.uniform(-1, 1, (rows, num_inputs))
    edges = np.array([0.0, -0.0, 1.0, -1.0])[:rows, None]
    xs[: len(edges)] = edges
    return xs


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_encode_equals_the_prefix_gate_by_gate_for_ansatz(key):
    circuit = build_ansatz(key).circuit
    ops = deferred_ops(circuit)
    body = circuit.body
    # The prefix is the patch encoding: everything before the first parameterised op.
    # The ancilla's prefix also holds its q4 Hadamard, and its parity gadget
    # (CY/CZ from each data qubit onto q4, then H) follows the body.
    assert body[0].param_slot is not None
    tail = _folded_tail(circuit)
    assert tail == (5 if key.startswith("ancilla") else 0)
    assert len(ops) - tail - len(body) == (27 if key.startswith("ancilla") else 26)
    rng = np.random.default_rng(18)
    # 500 rows: an ED batch of 5 draws; 1,568: one 8-image 28x28 eval batch.
    for rows in (1, 7, 196, 500, 1568):
        xs = _edge_inputs(rng, rows, 4)
        _assert_same_bits(encode(circuit, xs), _prefix_gate_by_gate(circuit, xs))


def _random_prefix(rng, n: int, length: int) -> list:
    """Random ops of the compiled class, closed by the inverse of their CNOT frame.

    Hadamards on a random subset of the qubits lead, then CNOTs and RZs
    with input angles.
    """
    hadamards = rng.permutation(n)[: rng.integers(n + 1)]
    ops = [GateOp("H", (int(q),)) for q in hadamards]
    frame = []
    for _ in range(length):
        if rng.random() < 1 / 3 and n > 1:
            op = GateOp("CNOT", tuple(int(q) for q in rng.choice(n, size=2, replace=False)))
            frame.append(op)
        else:
            k = int(rng.integers(1, min(n, 2) + 1))
            idx = tuple(int(i) for i in rng.choice(n, size=k, replace=False))
            op = GateOp("RZ", (int(rng.integers(n)),), input_idx=idx)
        ops.append(op)
    return ops + frame[::-1]


def test_encode_equals_the_prefix_gate_by_gate_for_random_encodings():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        prefix = _random_prefix(rng, n, int(rng.integers(0, 25)))
        body = (GateOp("RY", (0,), param_slot=0), GateOp("RZ", (0,), angle=0.5))
        circuit = Circuit(n, tuple(prefix) + body, num_params=1, num_inputs=n, readout=(0,))
        # The closing inverse frame makes the whole run one prefix.
        assert circuit.body == body
        xs = _edge_inputs(rng, 9, n)
        _assert_same_bits(encode(circuit, xs), _prefix_gate_by_gate(circuit, xs))
        want = np.stack([circuit_unitary(circuit, [0.0], x)[:, 0] for x in xs], axis=1)
        np.testing.assert_allclose(unitary(circuit, [[0.0]])[0] @ encode(circuit, xs), want,
                                   atol=1e-12)


def test_encode_equals_the_prefix_gate_by_gate_for_input_free_circuits():
    rng = np.random.default_rng(20)
    for _ in range(40):
        circuit = random_circuit(rng, num_qubits=int(rng.integers(2, 6)),
                                 depth=int(rng.integers(0, 12)))
        _assert_same_bits(encode(circuit, np.zeros((3, 0))),
                          _prefix_gate_by_gate(circuit, np.zeros((3, 0))))


# ---------------------------------------------------------------------------
# shot sampling (test oracle for the deferred-measurement rewrite)
# ---------------------------------------------------------------------------


def test_shot_oracle_shares_no_code_with_sim():
    import oracles
    import qccnn.sim as sim

    from_sim = {
        name for name, obj in vars(oracles).items()
        if getattr(obj, "__module__", "") == sim.__name__
    }
    assert from_sim == {"Circuit", "GateOp", "MidMeasure"}  # types only, no kernel or helper


def _measure_plus_circuit():
    ops = (GateOp("H", (0,)), MidMeasure(0, 0))
    return Circuit(1, ops, readout=(0,))


def test_trajectory_no_measurement_single_shot_is_exact():
    circuit = Circuit(1, (GateOp("RX", (0,), param_slot=0),), num_params=1, readout=(0,))
    estimates, _, _ = sample_shots(circuit, [1.3], shots=1, seed=0)
    np.testing.assert_allclose(estimates, [math.cos(1.3)], atol=1e-14)


def test_trajectory_outcome_frequency_within_binomial_band():
    # measuring H|0> gives outcome 1 with probability 1/2
    _, _, outcomes = sample_shots(_measure_plus_circuit(), [], shots=100_000, seed=7)
    freq = outcomes[:, 0].mean()
    assert 0.494 <= freq <= 0.506  # 3 sigma band around 0.5 at 1e5 shots


def test_trajectory_deterministic_given_seed():
    circuit = _measure_plus_circuit()
    _, values_a, outcomes_a = sample_shots(circuit, [], shots=500, seed=3)
    _, values_b, outcomes_b = sample_shots(circuit, [], shots=500, seed=3)
    assert np.array_equal(outcomes_a, outcomes_b)
    assert np.array_equal(values_a, values_b)


def test_trajectory_conditioned_gate_applies_per_outcome():
    # measure q0 of |+>; when 1, flip q1 via conditioned rotation RX(pi)
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("RX", (1,), angle=math.pi, condition=0),
    )
    circuit = Circuit(2, ops, readout=(1,))
    _, shot_values, outcomes = sample_shots(circuit, [], shots=4000, seed=1)
    flipped = outcomes[:, 0] == 1
    np.testing.assert_allclose(shot_values[flipped, 0], -1.0, atol=1e-12)
    np.testing.assert_allclose(shot_values[~flipped, 0], 1.0, atol=1e-12)
