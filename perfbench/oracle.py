"""Dense density-matrix reference for circuit readouts.

Shares no code with ``qccnn.sim``: every gate becomes a full 2^n x 2^n matrix
built here, mid-circuit measurements dephase the density matrix, and a gate
conditioned on a recorded bit acts as the gate controlled by the measured
qubit (exact, because a measured qubit is never touched off-diagonally
afterwards).  Only the circuit template types (``GateOp`` / ``MidMeasure``
fields) are read from the package.  Qubit 0 is the least significant bit.
"""

from __future__ import annotations

import numpy as np


def _rotation(kind: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    raise ValueError(kind)


_FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
_CONTROLLED_BASE = {"CNOT": "X", "CY": "Y", "CZ": "Z", "CRX": "RX", "CRY": "RY", "CRZ": "RZ"}


def _controlled(u: np.ndarray) -> np.ndarray:
    """4x4 matrix on (control, target), control as the low bit of the index."""
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[2, 2] = 1.0
    out[1::2, 1::2] = u
    return out


def _lift(u: np.ndarray, qubits, n: int) -> np.ndarray:
    """Full matrix of `u` acting on `qubits` (qubits[0] = low bit of u's index)."""
    b = np.arange(1 << n)
    sub = np.zeros_like(b)
    mask = 0
    for i, q in enumerate(qubits):
        sub |= ((b >> q) & 1) << i
        mask |= 1 << q
    rest = b & ~mask
    return u[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])


def _angle(op, params, inputs) -> float | None:
    if op.param_slot is not None:
        return float(params[op.param_slot])
    if op.input_idx is not None:
        return float(np.pi * np.prod([inputs[i] for i in op.input_idx]))
    return None if op.angle is None else float(op.angle)


def _gate_matrix(op, params, inputs, control_of_bit: dict, n: int) -> np.ndarray:
    theta = _angle(op, params, inputs)
    kind = op.kind
    if kind == "RZZ":
        phase = np.exp(-0.5j * theta), np.exp(0.5j * theta)
        u = np.diag([phase[0], phase[1], phase[1], phase[0]])
        return _lift(u, op.targets, n)
    if kind in _CONTROLLED_BASE:
        base = _CONTROLLED_BASE[kind]
        u = _FIXED[base] if theta is None else _rotation(base, theta)
        return _lift(_controlled(u), op.targets, n)
    u = _FIXED[kind] if kind in _FIXED else _rotation(kind, theta)
    if op.condition is None:
        return _lift(u, op.targets, n)
    return _lift(_controlled(u), (control_of_bit[op.condition], op.targets[0]), n)


def readouts(circuit, params, inputs) -> np.ndarray:
    """Outcome-averaged Z expectation of every readout qubit of `circuit`."""
    n = circuit.num_qubits
    dim = 1 << n
    bits = np.arange(dim)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    control_of_bit: dict[int, int] = {}
    for op in circuit.ops:
        if hasattr(op, "classical_bit"):  # mid-circuit measurement: dephase
            q = op.qubit
            control_of_bit[op.classical_bit] = q
            rho = rho * (((bits[:, None] >> q) & 1) == ((bits[None, :] >> q) & 1))
            continue
        g = _gate_matrix(op, params, inputs, control_of_bit, n)
        rho = g @ rho @ g.conj().T
    diag = rho.diagonal().real
    return np.array([diag @ (1.0 - 2.0 * ((bits >> q) & 1)) for q in circuit.readout])


def class_log_probs(z: np.ndarray) -> np.ndarray:
    """Log class probabilities: softmax over (z, -z) for one readout, else over z."""
    logits = np.array([z[0], -z[0]]) if len(z) == 1 else np.asarray(z)
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())
