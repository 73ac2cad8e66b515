"""Exact gradients of circuit readouts via the parameter-shift rule.

Single-qubit rotations (and RZZ) use the two-term rule with shifts of
+-pi/2; controlled rotations, whose generators have eigenvalues {0, +-1/2},
use the four-term rule with shifts +-pi/2 and +-3pi/2.  Circuits are
rewritten to deferred form first, so conditioned rotations differentiate as
controlled rotations.  A parameter slot referenced by several gates
accumulates the per-occurrence contributions.
"""

from __future__ import annotations

import math

import numpy as np

from .sim import Circuit, defer_measurements, param_ops, run_deferred_batch

_HALF_PI = 0.5 * math.pi
_THREE_HALF_PI = 1.5 * math.pi
# Four-term rule coefficients for generators with eigenvalues {0, +-1/2}.
_C1 = (math.sqrt(2.0) + 1.0) / (4.0 * math.sqrt(2.0))
_C2 = (math.sqrt(2.0) - 1.0) / (4.0 * math.sqrt(2.0))

_TWO_TERM = (( _HALF_PI, 0.5), (-_HALF_PI, -0.5))
_FOUR_TERM = (
    (_HALF_PI, _C1),
    (-_HALF_PI, -_C1),
    (_THREE_HALF_PI, -_C2),
    (-_THREE_HALF_PI, _C2),
)


def shift_rule_for(kind: str):
    """(shift, coefficient) pairs for one rotation gate kind."""
    if kind in ("RX", "RY", "RZ", "RZZ"):
        return _TWO_TERM
    if kind in ("CRX", "CRY", "CRZ"):
        return _FOUR_TERM
    raise ValueError(f"no parameter-shift rule for gate kind {kind!r}")


def _shift_tasks(circuit: Circuit):
    """One task per (parameterized occurrence, shift): arrays of equal length."""
    positions, slots, shifts, coeffs = [], [], [], []
    for pos, op in enumerate(param_ops(circuit)):
        for shift, coeff in shift_rule_for(op.kind):
            positions.append(pos)
            slots.append(op.param_slot)
            shifts.append(shift)
            coeffs.append(coeff)
    return (
        np.asarray(positions, dtype=int),
        np.asarray(slots, dtype=int),
        np.asarray(shifts, dtype=float),
        np.asarray(coeffs, dtype=float),
    )


def readout_jacobian_batch(circuit: Circuit, params, inputs=None) -> np.ndarray:
    """d<Z_j>/d theta_p for a batch of input rows.

    Returns an array of shape (rows, num_params, num_readouts).  `inputs`
    may be omitted (input-free circuit), a single vector, or a matrix of
    rows.
    """
    circuit = defer_measurements(circuit)
    inputs_arr = None if inputs is None else np.asarray(inputs, dtype=float)
    if circuit.num_params == 0:
        rows = inputs_arr.shape[0] if inputs_arr is not None and inputs_arr.ndim == 2 else 1
        return np.zeros((rows, 0, len(circuit.readout)))
    positions, slots, shifts, coeffs = _shift_tasks(circuit)
    n_tasks = len(positions)
    n_pop = len(param_ops(circuit))

    shift_matrix = np.zeros((n_tasks, n_pop))
    shift_matrix[np.arange(n_tasks), positions] = shifts

    if inputs_arr is None or inputs_arr.ndim == 1:
        rows = 1
        tiled_inputs = inputs_arr
        tiled_shifts = shift_matrix
    else:
        rows = inputs_arr.shape[0]
        tiled_inputs = np.repeat(inputs_arr, n_tasks, axis=0)
        tiled_shifts = np.tile(shift_matrix, (rows, 1))

    values = run_deferred_batch(circuit, params, tiled_inputs, tiled_shifts)
    values = values.reshape(rows, n_tasks, -1)

    jac = np.zeros((rows, circuit.num_params, values.shape[2]))
    for t in range(n_tasks):
        jac[:, slots[t], :] += coeffs[t] * values[:, t, :]
    return jac


def weighted_readout_gradient(circuit: Circuit, params, inputs, weights) -> np.ndarray:
    """sum_r sum_j weights[r, j] * d<Z_j>/d theta at input row r.

    The workhorse of the quantum layer's backward pass: builds the full
    (rows, params, readouts) parameter-shift jacobian, then contracts it
    against the upstream loss sensitivities.
    """
    weights = np.asarray(weights, dtype=float)
    jac = readout_jacobian_batch(circuit, params, inputs)
    if weights.shape != (jac.shape[0], jac.shape[2]):
        raise ValueError(
            f"weights shape {weights.shape} does not match"
            f" (rows, readouts) = {(jac.shape[0], jac.shape[2])}"
        )
    return np.einsum("rpj,rj->p", jac, weights)
