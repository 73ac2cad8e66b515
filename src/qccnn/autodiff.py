"""Exact gradients of circuit readouts by adjoint differentiation.

Jones & Gacon 2020 (arXiv:2009.02823): the caller's forward pass gives the
final state phi; lambda = O_w phi with O_w = sum_j w[r, j] Z_j, diagonal per
row r and read off ``circuit.signs``.  Walking back through the gates, each
parameterised gate exp(-i theta P/2) adds Im<lambda|P|phi> to its slot, and
then is undone on both states, down to the first parameterised gate.  The
walk runs over ``circuit.body``, the deferred ops after the encoding, so
conditioned rotations differentiate as controlled rotations, whose
generator acts on the control-1 half only.  A parameter slot referenced
by several gates accumulates the per-occurrence contributions.

One walk serves two entry points.  :func:`readout_gradient` walks every
row; the caller forms phi in the top half of a (2, 2**n, rows) pair, lambda
is written into its bottom half, and the walk overwrites both, so it
simulates nothing itself and holds no second copy of phi.
:func:`summed_readout_gradient` serves the kernels of a layer: circuits that
share every op after the encoding, differ only in their parameters, and
need only the gradient summed over rows.  For one kernel that is
Im tr(P M) with M = sum_r phi_r lambda_r^dagger, so the walk runs on the
2**n columns of the pair (M, I) instead of on the rows; the kernels' M sit
side by side as kernels x 2**n columns in the top half of one pair and
their I in its bottom half, and one walk serves them all.

Both take a (groups, num_params) parameter matrix in which group g owns the
g-th block of consecutive state columns: a kernel's 2**n columns, or a
parameter draw's rows.  The walk runs on the (2,)*(n+1) + (groups,
columns) view of the pair, in which the stack axis is one more qubit above
the circuit's: no gate targets it, so each undo is one gate-kernel call
on phi and lambda at once, and each stays a contiguous half.  It takes
every rotation's cos/sin at -theta/2 from one table per walk.
"""

from __future__ import annotations

import numpy as np

from .sim import (
    Circuit,
    _apply_kind,
    _check_params,
    _plan,
    _rotations,
    _state_view,
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
    base, control, axis = _plan(phi.ndim - 2, kind, targets)
    l, p = ((a[control] if control else a).swapaxes(0, axis) for a in (lam, phi))
    l0, l1 = l.conj()
    if base == "RX":
        prod = l0 * p[1] + l1 * p[0]
    elif base == "RY":
        prod = 1j * (l1 * p[0] - l0 * p[1])
    else:  # RZ
        prod = l0 * p[0] - l1 * p[1]
    return prod.sum(axis=tuple(range(prod.ndim - 2))).imag


def _lambda(circuit: Circuit, weights: np.ndarray, state: np.ndarray, out=None) -> np.ndarray:
    """lambda = O_w phi for every row of a (2**n, rows) state, O_w = sum_j weights[r, j] Z_j."""
    return np.multiply(np.ascontiguousarray(circuit.signs.T) @ weights.T, state, out=out)


def _walk(ops, params: np.ndarray, psi: np.ndarray, grad: np.ndarray):
    """Walk back from the last of `ops` to the first parameterised one.

    `psi` is the (2,)*(n+1) + (groups, columns) view of the stacked pair,
    phi = psi[0] and lam = psi[1], overwritten, and `params` the (groups,
    num_params) matrix.  Each parameterised op adds the per-column
    Im<lam|P|phi> to its slot of the (groups, columns, num_params) `grad`,
    and then every op after the first parameterised one is undone on both
    states in one kernel call: the stack axis is a qubit no gate targets.
    """
    phi, lam = psi
    first = next((i for i, op in enumerate(ops) if op.param_slot is not None), len(ops))
    # Rotations are undone at -theta; the fixed gates are their own inverses.
    undo = _rotations(ops, params, -1.0)
    for i in range(len(ops) - 1, first - 1, -1):
        op = ops[i]
        if op.param_slot is not None:
            grad[..., op.param_slot] += _generator_overlap(lam, phi, op.kind, op.targets)
        if i == first:
            break
        _apply_kind(psi, op.kind, op.targets, undo[i])


def readout_gradient(circuit: Circuit, params, weights, pair) -> np.ndarray:
    """Per-row gradient of sum_j weights[r, j] * <Z_j> with respect to params.

    `pair` is a (2, 2**n, rows) array whose ``pair[0]`` holds the circuit's
    final state: the encoding of the rows times their
    :func:`qccnn.sim.unitary` matrices.  ``pair[1]`` receives lambda, and
    the walk back overwrites both, so a caller that forms the final state
    in place in ``pair[0]`` holds no second copy of it.  `params` is a
    (groups, num_params) matrix whose group count divides the rows; group
    g owns the g-th block of rows // groups consecutive rows, which are at
    ``params[g]``.  The ops the walk undoes take no input angle, so it
    needs no inputs.  `weights` is (rows, readouts).  Returns an array of
    shape (rows, num_params).
    """
    rows = pair.shape[-1]
    params = _check_params(circuit, params, rows)
    groups = len(params)
    psi = _state_view(circuit, pair, (groups, rows // groups), stacked=True)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (rows, len(circuit.readout)):
        raise ValueError(
            f"weights shape {weights.shape} does not match"
            f" (rows, readouts) = {(rows, len(circuit.readout))}"
        )
    _lambda(circuit, weights, pair[0], out=pair[1])
    grad = np.zeros((groups, rows // groups, circuit.num_params))
    _walk(circuit.body, params, psi, grad)
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
    states are formed one at a time in one buffer.  Their M_k stand side
    by side in the top half of one (2, 2**n, kernels x 2**n) pair and
    copies of I in its bottom half, and one walk on the pair, kernel k's
    block of columns at ``params[k]``, gives every column's Im<I_c|P|M_c>.
    Its cost does not depend on the row count.  Returns an array of shape
    (kernels, num_params).
    """
    params = _check_params(circuit, params)
    kernels, dim = len(params), 1 << circuit.width
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
    pair = np.empty((2, dim, kernels * dim), dtype=complex)
    for k in range(kernels):
        np.matmul(unitaries[k], encoded, out=state)
        np.matmul(state, _lambda(circuit, weights[k], state).conj().T,
                  out=pair[0, :, k * dim : (k + 1) * dim])
    pair[1] = np.tile(np.eye(dim, dtype=complex), kernels)
    psi = _state_view(circuit, pair, (kernels, dim), stacked=True)
    grad = np.zeros((kernels, dim, circuit.num_params))
    _walk(circuit.body, params, psi, grad)
    return grad.sum(axis=1)
