"""Exact gradients of circuit readouts by adjoint differentiation.

Jones & Gacon 2020 (arXiv:2009.02823): the caller's forward pass gives the
final state phi; lambda = O_w phi with O_w = sum_j w[r, j] Z_j, diagonal per
row r.  Walking back through the gates, each parameterised gate
exp(-i theta P/2) adds Im<lambda|P|phi> to its slot, and then is undone on
both states, down to the first parameterised gate.  The walk runs over
the body of ``circuit.split``, which holds the circuit's deferred form,
so conditioned rotations differentiate as controlled rotations, whose
generator acts on the control-1 half only.  A parameter slot referenced
by several gates accumulates the per-occurrence contributions.

One walk serves two entry points.  :func:`readout_gradient` walks every
row and overwrites the caller's phi; it simulates nothing itself.
:func:`summed_readout_gradient` serves the kernels of a layer: circuits that
share every op after the encoding, differ only in their parameters, and
need only the gradient summed over rows.  For one kernel that is
Im tr(P M) with M = sum_r phi_r lambda_r^dagger, so the walk runs on the
2**n columns of the pair (M, I) instead of on the rows; the kernels' pairs
sit side by side as kernels x 2**n columns, and one walk serves them all.

Both take a (groups, num_params) parameter matrix in which group g owns the
g-th block of consecutive state columns: a kernel's 2**n columns, or a
parameter draw's rows.  The walk runs on the (2,)*n + (groups, columns)
view of the states and takes every rotation's cos/sin at -theta/2 from
one table per walk.
"""

from __future__ import annotations

import numpy as np

from .sim import (
    _CONTROLLED_BASE,
    Circuit,
    _apply_kind,
    _check_params,
    _halves,
    _rotations,
    _state_view,
    _z_signs,
    # Unused here: perfbench wraps qccnn.autodiff:run_deferred_batch and a test
    # asserts that every wrap target resolves.  The adjoint simulates nothing.
    run_deferred_batch,  # noqa: F401
)


def _generator_overlap(lam: np.ndarray, phi: np.ndarray, kind: str, targets: tuple):
    """Per-column Im<lam|P|phi>, P the Pauli generator of one rotation gate.

    `lam` and `phi` are (2,)*n + (groups, columns) views; P is X, Y or Z on
    the target, restricted to the control-1 half for controlled kinds.
    Returns a (groups, columns) array.
    """
    i0, i1 = _halves(phi.ndim - 2, kind, targets)
    l0, l1 = lam[i0].conj(), lam[i1].conj()
    base = _CONTROLLED_BASE.get(kind, kind)
    if base == "RX":
        prod = l0 * phi[i1] + l1 * phi[i0]
    elif base == "RY":
        prod = 1j * (l1 * phi[i0] - l0 * phi[i1])
    else:  # RZ
        prod = l0 * phi[i0] - l1 * phi[i1]
    return prod.sum(axis=tuple(range(prod.ndim - 2))).imag


def _lambda(circuit: Circuit, weights: np.ndarray, state: np.ndarray) -> np.ndarray:
    """lambda = O_w phi for every row of a (2**n, rows) state, O_w = sum_j weights[r, j] Z_j."""
    signs = np.stack([_z_signs(circuit.num_qubits, q) for q in circuit.readout], axis=1)
    return (signs @ weights.T) * state


def _walk(ops, params: np.ndarray, phi: np.ndarray, lam: np.ndarray, grad: np.ndarray):
    """Walk back from the last of `ops` to the first parameterised one.

    `phi` and `lam` are (2,)*n + (groups, columns) views, overwritten, and
    `params` the (groups, num_params) matrix.  Each parameterised op adds
    the per-column Im<lam|P|phi> to its slot of the (groups, columns,
    num_params) `grad`, and then every op after the first parameterised
    one is undone on both states.
    """
    first = next((i for i, op in enumerate(ops) if op.param_slot is not None), len(ops))
    # Rotations are undone at -theta; the fixed gates are their own inverses.
    undo = _rotations(ops, params, -1.0)
    for i in range(len(ops) - 1, first - 1, -1):
        op = ops[i]
        if op.param_slot is not None:
            grad[..., op.param_slot] += _generator_overlap(lam, phi, op.kind, op.targets)
        if i == first:
            break
        _apply_kind(phi, op.kind, op.targets, undo[i])
        _apply_kind(lam, op.kind, op.targets, undo[i])


def readout_gradient(circuit: Circuit, params, weights, state) -> np.ndarray:
    """Per-row gradient of sum_j weights[r, j] * <Z_j> with respect to params.

    `state` is the circuit's (2**n, rows) final state: the encoding of the
    rows times their :func:`qccnn.sim.unitary` matrices.  `params` is a
    (groups, num_params) matrix whose group count divides the rows; group g
    owns the g-th block of rows // groups consecutive rows, which are at
    ``params[g]``.  The walk back overwrites `state`.  The ops it walks
    take no input angle, so it needs no inputs.  `weights` is (rows,
    readouts).  Returns an array of shape (rows, num_params).
    """
    rows = state.shape[-1]
    params = _check_params(circuit, params, rows)
    groups = len(params)
    phi = _state_view(circuit, state, (groups, rows // groups))
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (rows, len(circuit.readout)):
        raise ValueError(
            f"weights shape {weights.shape} does not match"
            f" (rows, readouts) = {(rows, len(circuit.readout))}"
        )
    lam = _lambda(circuit, weights, state).reshape(phi.shape)
    grad = np.zeros((groups, rows // groups, circuit.num_params))
    _walk(circuit.split[1], params, phi, lam, grad)
    return grad.reshape(rows, circuit.num_params)


def summed_readout_gradient(circuit: Circuit, params, weights, unitaries, encoded) -> np.ndarray:
    """Per kernel k, the gradient of sum_r sum_j weights[k, r, j] * <Z_j> at params[k].

    `params` is a (kernels, num_params) matrix, `weights` is (kernels, rows,
    readouts), `unitaries` the (kernels, 2**n, 2**n) matrices
    :func:`qccnn.sim.unitary` returns for `params`, and `encoded` the
    (2**n, rows) state :func:`qccnn.sim.encode` returns; neither is
    changed.  Kernel k's rows share every op of the body, so its gradient
    is Im tr(P M_k) for M_k = sum_r phi_r lambda_r^dagger with
    phi = U_k @ encoded, a (2**n, 2**n) matrix.  The kernels' final
    states are formed one at a time in one buffer; their M_k stand side by
    side against copies of I, and one walk on these kernels x 2**n columns,
    kernel k's block at ``params[k]``, gives every column's Im<I_c|P|M_c>.
    Its cost does not depend on the row count.  Returns an array of shape
    (kernels, num_params).
    """
    params = _check_params(circuit, params)
    kernels, dim = len(params), 1 << circuit.num_qubits
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 3 or weights.shape[::2] != (kernels, len(circuit.readout)):
        raise ValueError(
            f"weights shape {weights.shape} does not match"
            f" (kernels = {kernels}, rows, readouts = {len(circuit.readout)})"
        )
    if np.shape(unitaries) != (kernels, dim, dim):
        raise ValueError(
            f"unitaries shape {np.shape(unitaries)} does not match {(kernels, dim, dim)}"
        )
    _state_view(circuit, encoded, (weights.shape[1],))
    # One final state at a time, so the peak does not grow with the kernels.
    state = np.empty_like(encoded)
    ident = np.tile(np.eye(dim, dtype=complex), kernels)
    m = np.empty_like(ident)
    for k in range(kernels):
        np.matmul(unitaries[k], encoded, out=state)
        np.matmul(state, _lambda(circuit, weights[k], state).conj().T,
                  out=m[:, k * dim : (k + 1) * dim])
    grad = np.zeros((kernels, dim, circuit.num_params))
    phi, lam = (_state_view(circuit, a, (kernels, dim)) for a in (m, ident))
    _walk(circuit.split[1], params, phi, lam, grad)
    return grad.sum(axis=1)
