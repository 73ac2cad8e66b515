"""The parity gadget compiled away: where `Circuit` folds it, and each near miss.

A top qubit t that the encoding leaves in |+>, and that only CY/CZ gates from
other qubits and then H(t) touch at the end, reads out as those controls' Z
parity, so the circuit runs on one qubit less.  Each case below builds random
5-qubit circuits with such a gadget, or with one change that breaks or keeps
the rule, and checks the width the circuit runs at.  Either way its readouts,
per-row gradients and summed gradients must match the dense oracles, which
simulate every declared qubit.
"""

import math

import numpy as np
import pytest

from qccnn.autodiff import readout_gradient, summed_readout_gradient
from qccnn.sim import Circuit, GateOp, encode, readouts, unitary

from oracles import param_shift_jacobian, random_circuit, z_expectations_oracle

N = 5


def _gadget_circuit(rng, case: str) -> Circuit:
    """A random 5-qubit circuit ending in a parity gadget, changed as `case` names."""
    t = 2 if case == "gadget-not-on-top" else N - 1
    data = [q for q in range(N) if q != t]
    a, b = data[0], data[1]
    ops = [GateOp("H", (int(q),)) for q in rng.permutation(N)]
    ops += [GateOp("RZ", (q,), input_idx=(i,)) for i, q in enumerate(data)]
    ops += [GateOp("CNOT", (a, b)), GateOp("RZ", (b,), input_idx=(0, 1)), GateOp("CNOT", (a, b))]
    if case == "phase-on-top":
        ops.append(GateOp("RZ", (t,), input_idx=(2,)))
    elif case == "frame-through-top":  # RZ(a) reads t's bit: t enters its Z-string
        ops += [GateOp("CNOT", (t, a)), GateOp("RZ", (a,), input_idx=(3,)), GateOp("CNOT", (t, a))]
    elif case == "frame-onto-top":  # t's frame row changes, but no Z-string holds t
        ops += [GateOp("CNOT", (a, t)), GateOp("RZ", (a,), input_idx=(3,)), GateOp("CNOT", (a, t))]
    body = random_circuit(rng, num_qubits=N - 1, depth=12).ops
    ops += [GateOp("RX", (data[0],), param_slot=0)]
    ops += [GateOp(op.kind, tuple(data[q] for q in op.targets),
                   param_slot=None if op.param_slot is None else op.param_slot + 1)
            for op in body]
    slots = 1 + sum(op.param_slot is not None for op in body)
    controls = [int(q) for q in rng.permutation(data)[: rng.integers(1, N)]]
    if case == "repeated-control":
        controls.insert(int(rng.integers(len(controls) + 1)), controls[0])
    tail = [GateOp(("CY", "CZ")[rng.integers(2)], (q, t)) for q in controls]
    if case == "op-in-tail":
        tail.insert(int(rng.integers(len(tail) + 1)), GateOp("RY", (t,), param_slot=slots))
        slots += 1
    ops += tail + [GateOp("H", (t,))]
    readout = (t,)
    if case == "data-readouts":
        readout = (data[2], t, data[0])
    return Circuit(N, tuple(ops), num_params=slots, num_inputs=4, readout=readout)


# case -> the width it runs at: 4 where the rule holds, 5 where it does not.
CASES = {
    "gadget": 4,
    "data-readouts": 4,
    "repeated-control": 4,
    "frame-onto-top": 4,
    "op-in-tail": 5,
    "phase-on-top": 5,
    "frame-through-top": 5,
    "gadget-not-on-top": 5,
}


@pytest.mark.parametrize("case", list(CASES))
def test_gadget_folds_only_where_the_rule_holds(case):
    rng = np.random.default_rng(list(CASES).index(case) + 90)
    for _ in range(5):
        circuit = _gadget_circuit(rng, case)
        assert circuit.width == CASES[case]
        assert circuit.signs.shape == (len(circuit.readout), 1 << circuit.width)
        xs = rng.uniform(-1, 1, (3, 4))
        thetas = rng.uniform(-math.pi, math.pi, (2, circuit.num_params))
        encoded = encode(circuit, xs)
        u = unitary(circuit, thetas)
        weights = rng.normal(size=(2, len(xs), len(circuit.readout)))
        summed = summed_readout_gradient(circuit, thetas, weights, u, encoded)
        for k, theta in enumerate(thetas):
            state = u[k] @ encoded
            want = [z_expectations_oracle(circuit, theta, x) for x in xs]
            np.testing.assert_allclose(readouts(circuit, state), want, rtol=0, atol=1e-12)
            # (rows, num_params): each row's jacobian times its weights.
            jac = np.stack([param_shift_jacobian(circuit, theta, x) @ w
                            for x, w in zip(xs, weights[k])])
            pair = np.stack((state, np.empty_like(state)))
            got = readout_gradient(circuit, np.tile(theta, (len(xs), 1)), weights[k], pair)
            np.testing.assert_allclose(got, jac, rtol=0, atol=1e-12)
            np.testing.assert_allclose(summed[k], jac.sum(axis=0), rtol=0, atol=1e-12)


def test_repeated_control_cancels_in_the_parity():
    # CZ(0, t) twice is the identity, so t reads the Z parity of q1 alone.
    ops = tuple(GateOp("H", (q,)) for q in range(3)) + (
        GateOp("RX", (0,), param_slot=0), GateOp("RY", (1,), param_slot=1),
        GateOp("CZ", (0, 2)), GateOp("CY", (1, 2)), GateOp("CZ", (0, 2)), GateOp("H", (2,)))
    circuit = Circuit(3, ops, num_params=2, readout=(2, 1))
    assert circuit.width == 2
    np.testing.assert_array_equal(circuit.signs, [[1, 1, -1, -1], [1, 1, -1, -1]])
