"""The ansatz table: each circuit variant's builder and classical postprocess.

Every builder returns an input-parameterized :class:`~qccnn.sim.Circuit`
template over 4 patch inputs; the encoding angles are resolved per patch at
execution time.  `_ANSATZE` maps each key to a builder, the one value that
builder takes, and a postprocess kind (identity unless named below):

* ``conv`` - encoding + basic entangling layer, all four qubits read out.
* ``midcircuit-rx`` / ``midcircuit-ry`` - three mid-circuit measurements
  conditioning rotation cascades about the given axis, one readout.
* ``ancilla-cy`` / ``ancilla-cz`` - Hadamard / controlled gates / Hadamard
  parity readout on a fifth qubit.  The circuit declares 5 qubits, but
  :class:`~qccnn.sim.Circuit` folds that gadget into a Z0Z1Z2Z3 parity
  readout, so both variants run on 4 qubits.
* ``mod-a`` / ``mod-b`` / ``mod-c`` - modular two-qubit blocks halving the
  register twice (4 -> 2 -> 1 qubits).  The block internals follow common
  two-qubit pooling constructions; they are one concrete reconstruction, not
  a canonical definition (see README).
* ``select-sign`` / ``select-tanh`` - the ``conv`` circuit read on q2 only,
  with a sign or tanh activation on the expectation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import Circuit, GateOp, MidMeasure


@dataclass(frozen=True)
class Ansatz:
    """One quantum kernel variant: circuit template plus classical postprocess."""

    key: str
    circuit: Circuit
    postprocess: str = "identity"

    @property
    def num_params(self) -> int:
        return self.circuit.num_params

    @property
    def num_readouts(self) -> int:
        return len(self.circuit.readout)


# kind -> (activation, derivative), both pointwise on circuit readouts in
# [-1, 1].  Sign is flat almost everywhere, so its derivative is zero.
_POSTPROCESS = {
    "identity": (lambda values: values, np.ones_like),
    "sign": (np.sign, np.zeros_like),
    "tanh": (np.tanh, lambda values: 1.0 - np.tanh(values) ** 2),
}


def _postprocess(kind: str):
    if kind not in _POSTPROCESS:
        raise ValueError(f"unknown postprocess {kind!r}")
    return _POSTPROCESS[kind]


def apply_postprocess(kind: str, values):
    """Classical activation on circuit readouts; maps [-1, 1] into [-1, 1]."""
    return _postprocess(kind)[0](values)


def postprocess_derivative(kind: str, values):
    """Pointwise derivative of :func:`apply_postprocess` at `values`."""
    return _postprocess(kind)[1](np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# circuit fragments
# ---------------------------------------------------------------------------


def higher_order_encoding_template() -> list:
    """Encoding fragment with input-slot angles, reusable across patches.

    Hadamard on every qubit, RZ(pi*x_n) per qubit, then for every pair i<j
    the two-qubit phase exp(-i*pi*x_i*x_j*Z_i*Z_j/2) as CNOT / RZ / CNOT.
    """
    ops = [GateOp("H", (q,)) for q in range(4)]
    ops += [GateOp("RZ", (q,), input_idx=(q,)) for q in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        ops.append(GateOp("CNOT", (i, j)))
        ops.append(GateOp("RZ", (j,), input_idx=(i, j)))
        ops.append(GateOp("CNOT", (i, j)))
    return ops


def basic_entangling_layer(param_base: int = 0) -> list:
    """Trainable RX on each qubit, then a CNOT ring on adjacent pairs."""
    ops = [GateOp("RX", (q,), param_slot=param_base + q) for q in range(4)]
    ops += [GateOp("CNOT", pair) for pair in ((0, 1), (1, 2), (2, 3), (3, 0))]
    return ops


# ---------------------------------------------------------------------------
# ansatz builders
# ---------------------------------------------------------------------------


def build_conv(readout: tuple[int, ...]) -> Circuit:
    """Encoding + entangling layer: 4 qubits, 4 parameters, read on `readout`."""
    ops = higher_order_encoding_template() + basic_entangling_layer(0)
    return Circuit(4, tuple(ops), num_params=4, num_inputs=4, readout=readout)


def build_midcircuit_pooling(axis: str) -> Circuit:
    """Mid-circuit measurement pooling: 4 qubits, 6 parameters, readout q3.

    q0 is measured and, on outcome 1, `axis` rotations hit q1/q2/q3; then q1
    is measured conditioning rotations on q2/q3; after a CNOT(q2, q3), q2 is
    measured conditioning a final rotation on q3.
    """
    ops = higher_order_encoding_template()
    ops.append(MidMeasure(0, 0))
    ops += [GateOp(axis, (q,), param_slot=q - 1, condition=0) for q in (1, 2, 3)]
    ops.append(MidMeasure(1, 1))
    ops += [GateOp(axis, (q,), param_slot=q + 1, condition=1) for q in (2, 3)]
    ops.append(GateOp("CNOT", (2, 3)))
    ops.append(MidMeasure(2, 2))
    ops.append(GateOp(axis, (3,), param_slot=5, condition=2))
    return Circuit(4, tuple(ops), num_params=6, num_inputs=4, readout=(3,))


def build_ancilla_pooling(gate: str) -> Circuit:
    """Ancilla pooling: 5 qubits, 4 parameters, parity readout on the ancilla.

    The ancilla (q4) is framed by Hadamards around one controlled `gate` from
    each data qubit.  CY and CZ variants are observationally identical: both
    reduce the readout to the four-qubit parity <ZZZZ>.  The circuit keeps
    these ops as written, but it runs on the 4 data qubits with that
    parity as its sign row (``Circuit.width`` is 4), so CY and CZ run the
    same program.
    """
    ops = [GateOp("H", (4,))]
    ops += higher_order_encoding_template()
    ops += basic_entangling_layer(0)
    ops += [GateOp(gate, (q, 4)) for q in range(4)]
    ops.append(GateOp("H", (4,)))
    return Circuit(5, tuple(ops), num_params=4, num_inputs=4, readout=(4,))


def _pool_primitive(a: int, b: int, base: int):
    """Two-parameter pooling of qubit a into qubit b; the whole mod-a block."""
    ops = [
        GateOp("CRZ", (a, b), param_slot=base),
        GateOp("X", (a,)),
        GateOp("CRX", (a, b), param_slot=base + 1),
    ]
    return ops, base + 2


def _block_mod_b(a: int, b: int, base: int):
    ops = [
        GateOp("RY", (a,), param_slot=base),
        GateOp("RY", (b,), param_slot=base + 1),
        GateOp("CNOT", (a, b)),
    ]
    tail, base = _pool_primitive(a, b, base + 2)
    return ops + tail, base


def _block_mod_c(a: int, b: int, base: int):
    ops = [
        GateOp("RX", (a,), param_slot=base),
        GateOp("RZ", (a,), param_slot=base + 1),
        GateOp("RX", (b,), param_slot=base + 2),
        GateOp("RZ", (b,), param_slot=base + 3),
        GateOp("CRX", (b, a), param_slot=base + 4),
        GateOp("CRX", (a, b), param_slot=base + 5),
        GateOp("RX", (a,), param_slot=base + 6),
        GateOp("RZ", (a,), param_slot=base + 7),
        GateOp("RX", (b,), param_slot=base + 8),
        GateOp("RZ", (b,), param_slot=base + 9),
    ]
    tail, base = _pool_primitive(a, b, base + 10)
    return ops + tail, base


def build_modular_pooling(block) -> Circuit:
    """Modular pooling: three two-qubit blocks reduce 4 -> 2 -> 1 qubits.

    `block(a, b, base)` pools qubit a into b with parameters from slot
    `base` on and returns (ops, next free slot).  Blocks act on (q0,q1) and
    (q2,q3), each keeping the higher-indexed qubit, then on (q1,q3); readout
    is q3.  Discarded qubits are simply never used again.  Parameters:
    mod-a 6, mod-b 12, mod-c 36.
    """
    ops = higher_order_encoding_template()
    base = 0
    for a, b in ((0, 1), (2, 3), (1, 3)):
        blk, base = block(a, b, base)
        ops += blk
    return Circuit(4, tuple(ops), num_params=base, num_inputs=4, readout=(3,))


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

# key -> (builder, its argument, postprocess kind)
_ANSATZE = {
    "conv": (build_conv, (0, 1, 2, 3), "identity"),
    "midcircuit-rx": (build_midcircuit_pooling, "RX", "identity"),
    "midcircuit-ry": (build_midcircuit_pooling, "RY", "identity"),
    "ancilla-cy": (build_ancilla_pooling, "CY", "identity"),
    "ancilla-cz": (build_ancilla_pooling, "CZ", "identity"),
    "mod-a": (build_modular_pooling, _pool_primitive, "identity"),
    "mod-b": (build_modular_pooling, _block_mod_b, "identity"),
    "mod-c": (build_modular_pooling, _block_mod_c, "identity"),
    "select-sign": (build_conv, (2,), "sign"),
    "select-tanh": (build_conv, (2,), "tanh"),
}
ANSATZ_KEYS = tuple(_ANSATZE)


@lru_cache(maxsize=None)
def build_ansatz(key: str) -> Ansatz:
    """Look up an ansatz by its registry key (see `ANSATZ_KEYS`)."""
    if key not in _ANSATZE:
        raise ValueError(f"unknown ansatz key {key!r}; known keys: {', '.join(ANSATZ_KEYS)}")
    builder, arg, postprocess = _ANSATZE[key]
    return Ansatz(key, builder(arg), postprocess)
