"""Deferred-measurement rewrite: structure, validity class, equivalence.

A Circuit checks the validity class and defers its ops in one walk when it
is built, so each circuit outside the class fails at construction.
"""

import math

import numpy as np
import pytest

from qccnn.circuits import build_ansatz
from qccnn.sim import Circuit, GateOp, MidMeasure, run_deferred_batch

from oracles import deferred_circuit, deferred_ops, sample_shots


def _midmeasures(circuit):
    return sum(isinstance(op, MidMeasure) for op in circuit.ops)


def test_midcircuit_rewrite_structure():
    circuit = build_ansatz("midcircuit-ry").circuit
    assert _midmeasures(circuit) == 3
    assert sum(op.condition is not None for op in circuit.ops if isinstance(op, GateOp)) == 6
    deferred = deferred_circuit(circuit)
    assert _midmeasures(deferred) == 0
    controlled = [op for op in deferred.ops if op.kind in ("CRX", "CRY", "CRZ")]
    assert len(controlled) == 6
    assert all(op.kind == "CRY" for op in controlled)
    assert all(op.condition is None for op in deferred.ops)
    assert deferred.num_params == circuit.num_params
    assert deferred.readout == circuit.readout


def test_measurement_free_circuit_returned_unchanged():
    circuit = Circuit(1, (GateOp("H", (0,)),), readout=(0,))
    assert deferred_ops(circuit) == circuit.ops
    assert deferred_circuit(circuit) is circuit


def test_conditioned_rotation_becomes_control_from_measured_qubit():
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("RY", (1,), angle=0.7, condition=0),
    )
    circuit = Circuit(2, ops, readout=(1,))
    assert [op.kind for op in deferred_ops(circuit)] == ["H", "CRY"]
    # The Hadamard is the encoding prefix; the rewritten gate leads the body.
    assert circuit.body == (GateOp("CRY", (0, 1), angle=0.7),)


def test_rewrite_rejects_reuse_of_measured_qubit():
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("H", (0,)),  # a gate that targets a measured qubit
    )
    with pytest.raises(ValueError, match="deferred-measurement-valid"):
        Circuit(2, ops, readout=(1,))


def test_rewrite_rejects_conditioned_non_rotation():
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("X", (1,), condition=0),
    )
    with pytest.raises(ValueError, match="only RX/RY/RZ"):
        Circuit(2, ops, readout=(1,))


def test_rewrite_rejects_conditioned_target_on_measured_qubit():
    ops = (
        GateOp("H", (0,)),
        GateOp("H", (1,)),
        MidMeasure(0, 0),
        MidMeasure(1, 1),
        GateOp("RX", (1,), angle=0.3, condition=0),
    )
    with pytest.raises(ValueError, match="already-measured"):
        Circuit(2, ops, readout=(0,))


def test_circuit_rejects_conditioned_gate_on_its_own_measured_qubit():
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("RY", (0,), angle=0.4, condition=0),
    )
    with pytest.raises(ValueError, match="its own measured qubit 0"):
        Circuit(2, ops, readout=(1,))


@pytest.mark.parametrize("gate", [
    GateOp("RZ", (0,), angle=0.3),
    GateOp("CZ", (1, 0)),
    GateOp("CRZ", (1, 0), angle=0.3),
], ids=lambda op: op.kind)
def test_circuit_rejects_a_z_diagonal_gate_on_a_measured_qubit(gate):
    # Such a gate commutes with the measurement, but no ansatz needs one:
    # a measured qubit is only ever a control, whatever the gate's kind.
    ops = (GateOp("H", (0,)), MidMeasure(0, 0), gate)
    with pytest.raises(ValueError, match="reuses a measured qubit"):
        Circuit(2, ops, readout=(1,))


def test_circuit_rejects_qubit_measured_twice():
    ops = (GateOp("H", (0,)), MidMeasure(0, 0), MidMeasure(0, 1))
    with pytest.raises(ValueError, match="qubit 0 measured twice"):
        Circuit(1, ops, readout=(0,))


def test_rewrite_allows_control_only_reuse():
    # a measured qubit may still act as the control of an entangling gate
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("CNOT", (0, 1)),
    )
    circuit = Circuit(2, ops, readout=(1,))
    assert [op.kind for op in deferred_ops(circuit)] == ["H", "CNOT"]
    assert circuit.body == (GateOp("CNOT", (0, 1)),)


def test_deferred_equals_outcome_average_small_case():
    # measure q0 of H|0>, conditionally RX(t) on q1: <Z1> = (1 + cos t)/2
    t = 1.234
    ops = (
        GateOp("H", (0,)),
        MidMeasure(0, 0),
        GateOp("RX", (1,), angle=t, condition=0),
    )
    circuit = Circuit(2, ops, readout=(1,))
    z = run_deferred_batch(circuit, [], np.zeros((1, 0)))[0]
    np.testing.assert_allclose(z, [(1 + math.cos(t)) / 2], atol=1e-14)


@pytest.mark.parametrize("key", ["midcircuit-rx", "midcircuit-ry"])
def test_deferred_matches_trajectory_sampling(key):
    circuit = build_ansatz(key).circuit
    rng = np.random.default_rng(21)
    shots = 20_000
    for _ in range(3):
        x = rng.uniform(-1, 1, 4)
        theta = rng.uniform(-math.pi, math.pi, 6)
        exact = run_deferred_batch(circuit, theta, x[None])[0][0]
        estimates, shot_values, _ = sample_shots(
            circuit, theta, shots=shots, seed=int(rng.integers(2**31)), inputs=x
        )
        stderr = shot_values[:, 0].std(ddof=1) / math.sqrt(shots)
        assert abs(estimates[0] - exact) <= 4 * stderr + 1e-9
