"""Exact gradients of circuit readouts by adjoint differentiation.

Jones & Gacon 2020 (arXiv:2009.02823): the caller's forward pass gives the
final state phi; lambda = O_w phi with O_w = sum_j w[r, j] Z_j, diagonal per
row r.  Walking back through the gates, each parameterised gate
exp(-i theta P/2) adds Im<lambda|P|phi> to its slot, and then is undone on
both states, down to the first parameterised gate.  Circuits are rewritten
to deferred form first, so conditioned rotations differentiate as
controlled rotations, whose generator acts on the control-1 half only.  A
parameter slot referenced by several gates accumulates the per-occurrence
contributions.

One walk serves two entry points.  :func:`readout_gradient` walks every
row and overwrites the caller's phi; it simulates nothing itself.
:func:`summed_readout_gradient` serves rows that share parameters and every
op after the encoding, and need only the gradient summed over rows: that is
Im tr(P M) with M = sum_r phi_r lambda_r^dagger, so it walks the 2**n
columns of the pair (M, I) instead of the rows.
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
    _shared_suffix,
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


def _lambda(circuit: Circuit, weights: np.ndarray, state: np.ndarray) -> np.ndarray:
    """lambda = O_w phi for every row of a (2**n, rows) state, O_w = sum_j weights[r, j] Z_j."""
    signs = np.stack([_z_signs(circuit.num_qubits, q) for q in circuit.readout], axis=1)
    return (signs @ weights.T) * state


def _walk(ops, params, inputs, phi: np.ndarray, lam: np.ndarray, grad: np.ndarray):
    """Walk back from the last of `ops` to the first, which is parameterised.

    `phi` and `lam` are (2,)*n + (cols,) views, overwritten.  Each
    parameterised op adds the per-column Im<lam|P|phi> to its slot of the
    (cols, num_params) `grad`, and then every op but the first is undone on
    both states.
    """
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op.param_slot is not None:
            grad[:, op.param_slot] += _generator_overlap(lam, phi, op.kind, op.targets)
        if i == 0:
            break
        # Rotations are undone at -theta; the fixed gates are their own inverses.
        theta = None
        if op.kind in ROTATION_KINDS:
            theta = np.negative(_resolve_angle(op, params, inputs))
        _apply_kind(phi, op.kind, op.targets, theta)
        _apply_kind(lam, op.kind, op.targets, theta)


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
    phi = _state_view(circuit, state, rows)
    lam = _lambda(circuit, weights, state).reshape(phi.shape)
    grad = np.zeros((rows, circuit.num_params))
    _walk(circuit.ops[_first_param_op(circuit) :], params, inputs, phi, lam, grad)
    return grad


def summed_readout_gradient(circuit: Circuit, params, weights, state) -> np.ndarray:
    """Gradient of sum_r sum_j weights[r, j] * <Z_j>_r with respect to shared params.

    `params` is a (num_params,) vector, `weights` is (rows, readouts) and
    `state` the (2**n, rows) final state, which is left unchanged.  The
    rows share every op from the first parameterised one, so the gradient
    is Im tr(P M) for M = sum_r phi_r lambda_r^dagger, a (2**n, 2**n)
    matrix: the walk runs on the pair (M, I), whose column c contributes
    Im<I_c|P|M_c>, at a cost that does not depend on the row count.  A
    circuit with an input angle after its first parameterised op is
    rejected with ValueError.  Returns an array of shape (num_params,).
    """
    circuit = defer_measurements(circuit)
    ops, params = _shared_suffix(circuit, params)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(circuit.readout):
        raise ValueError(
            f"weights shape {weights.shape} does not match"
            f" (rows, readouts = {len(circuit.readout)})"
        )
    _state_view(circuit, state, weights.shape[0])
    dim = 1 << circuit.num_qubits
    m = state @ _lambda(circuit, weights, state).conj().T
    ident = np.eye(dim, dtype=complex)
    grad = np.zeros((dim, circuit.num_params))
    _walk(ops, params, None, _state_view(circuit, m, dim), _state_view(circuit, ident, dim), grad)
    return grad.sum(axis=0)
