"""Builders for the data encoding, convolution baseline and pooling circuits.

Every builder returns an input-parameterized :class:`~qccnn.sim.Circuit`
template over 4 patch inputs; the encoding angles are resolved per patch at
execution time.  Families:

* ``conv`` - encoding + basic entangling layer, all four qubits read out.
* ``midcircuit-rx`` / ``midcircuit-ry`` - three mid-circuit measurements
  conditioning rotation cascades, one readout.
* ``ancilla-cy`` / ``ancilla-cz`` - Hadamard / controlled gates / Hadamard
  parity readout on a fifth qubit.
* ``mod-a`` / ``mod-b`` / ``mod-c`` - modular two-qubit blocks halving the
  register twice (4 -> 2 -> 1 qubits).  The block internals follow common
  two-qubit pooling constructions; they are one concrete reconstruction, not
  a canonical definition (see README).
* ``select-sign`` / ``select-tanh`` - read a single fixed qubit and apply a
  classical activation to the expectation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sim import Circuit, GateOp, MidMeasure

ANSATZ_KEYS = (
    "conv",
    "midcircuit-rx",
    "midcircuit-ry",
    "ancilla-cy",
    "ancilla-cz",
    "mod-a",
    "mod-b",
    "mod-c",
    "select-sign",
    "select-tanh",
)


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


def apply_postprocess(kind: str, values):
    """Classical activation on circuit readouts; maps [-1, 1] into [-1, 1]."""
    if kind == "identity":
        return values
    if kind == "sign":
        return np.sign(values)
    if kind == "tanh":
        return np.tanh(values)
    raise ValueError(f"unknown postprocess {kind!r}")


def postprocess_derivative(kind: str, values):
    """Pointwise derivative of :func:`apply_postprocess` at `values`.

    Sign is flat almost everywhere, so its derivative is identically zero.
    """
    values = np.asarray(values, dtype=float)
    if kind == "identity":
        return np.ones_like(values)
    if kind == "sign":
        return np.zeros_like(values)
    if kind == "tanh":
        return 1.0 - np.tanh(values) ** 2
    raise ValueError(f"unknown postprocess {kind!r}")


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


def build_conv_no_pool() -> Circuit:
    """Quantum convolution baseline: 4 qubits, 4 parameters, 4 readouts."""
    ops = higher_order_encoding_template() + basic_entangling_layer(0)
    return Circuit(4, tuple(ops), num_params=4, num_inputs=4, readout=(0, 1, 2, 3))


def build_midcircuit_pooling(axis: str) -> Circuit:
    """Mid-circuit measurement pooling: 4 qubits, 6 parameters, readout q3.

    q0 is measured and, on outcome 1, rotations hit q1/q2/q3; then q1 is
    measured conditioning rotations on q2/q3; after a CNOT(q2, q3), q2 is
    measured conditioning a final rotation on q3.
    """
    if axis not in ("RX", "RY"):
        raise ValueError(f"axis must be RX or RY, got {axis!r}")
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

    The ancilla (q4) is framed by Hadamards around one controlled gate from
    each data qubit.  CY and CZ variants are observationally identical: both
    reduce the readout to the four-qubit parity <ZZZZ>.
    """
    if gate not in ("CY", "CZ"):
        raise ValueError(f"gate must be CY or CZ, got {gate!r}")
    ops = [GateOp("H", (4,))]
    ops += higher_order_encoding_template()
    ops += basic_entangling_layer(0)
    ops += [GateOp(gate, (q, 4)) for q in range(4)]
    ops.append(GateOp("H", (4,)))
    return Circuit(5, tuple(ops), num_params=4, num_inputs=4, readout=(4,))


def _pool_primitive(a: int, b: int, base: int):
    # Two-parameter pooling of qubit a into qubit b.
    ops = [
        GateOp("CRZ", (a, b), param_slot=base),
        GateOp("X", (a,)),
        GateOp("CRX", (a, b), param_slot=base + 1),
    ]
    return ops, base + 2


def _block_mod_a(a: int, b: int, base: int):
    return _pool_primitive(a, b, base)


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


_MOD_BLOCKS = {"a": _block_mod_a, "b": _block_mod_b, "c": _block_mod_c}


def build_modular_pooling(variant: str) -> Circuit:
    """Modular pooling: three two-qubit blocks reduce 4 -> 2 -> 1 qubits.

    Blocks act on (q0,q1) and (q2,q3), each keeping the higher-indexed
    qubit, then on (q1,q3); readout is q3.  Discarded qubits are simply
    never used again.  Parameters: mod-a 6, mod-b 12, mod-c 36.
    """
    block = _MOD_BLOCKS.get(variant)
    if block is None:
        raise ValueError(f"variant must be one of {sorted(_MOD_BLOCKS)}, got {variant!r}")
    ops = higher_order_encoding_template()
    base = 0
    for a, b in ((0, 1), (2, 3), (1, 3)):
        blk, base = block(a, b, base)
        ops += blk
    return Circuit(4, tuple(ops), num_params=base, num_inputs=4, readout=(3,))


def build_qubit_select(post: str):
    """Qubit-selection pooling: read q2 only, activate classically.

    Returns the circuit (4 qubits, 4 parameters) and the postprocess kind.
    """
    if post not in ("sign", "tanh"):
        raise ValueError(f"post must be sign or tanh, got {post!r}")
    ops = higher_order_encoding_template() + basic_entangling_layer(0)
    return Circuit(4, tuple(ops), num_params=4, num_inputs=4, readout=(2,)), post


@lru_cache(maxsize=None)
def build_ansatz(key: str) -> Ansatz:
    """Look up an ansatz by its registry key (see `ANSATZ_KEYS`)."""
    if key not in ANSATZ_KEYS:
        raise ValueError(f"unknown ansatz key {key!r}; known keys: {', '.join(ANSATZ_KEYS)}")
    if key == "conv":
        return Ansatz(key, build_conv_no_pool())
    if key.startswith("midcircuit-"):
        axis = key.removeprefix("midcircuit-").upper()
        return Ansatz(key, build_midcircuit_pooling(axis))
    if key.startswith("ancilla-"):
        gate = key.removeprefix("ancilla-").upper()
        return Ansatz(key, build_ancilla_pooling(gate))
    if key.startswith("mod-"):
        variant = key.removeprefix("mod-")
        return Ansatz(key, build_modular_pooling(variant))
    post = key.removeprefix("select-")
    circuit, post = build_qubit_select(post)
    return Ansatz(key, circuit, postprocess=post)
