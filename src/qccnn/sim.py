"""Dense statevector simulation of small parameterized quantum circuits.

Qubit ordering is little-endian throughout: qubit 0 is the least significant
bit of a basis-state index, so basis state ``b`` assigns qubit ``q`` the
value ``(b >> q) & 1``.  A batch of states is stored amplitude-major, as a
(2**n, rows) array, and gates act on its (2,)*n + (rows,) view, in which
qubit ``q`` is axis ``n-1-q``.

A :class:`Circuit` is an immutable template.  Rotation angles are resolved at
execution time from one of three sources: a trainable parameter slot, a
product of circuit inputs (scaled by pi), or a baked-in constant.  The
parameters are a (groups, num_params) matrix: group g owns the g-th block
of consecutive state columns, and the body and the adjoint walk run on the
(2,)*n + (groups, columns) view of the state, in which a slot's angles
are a (groups, 1) column that broadcasts over each group's columns.  Each
gate acts on one view of that state whose leading axis is its target's,
restricted to the control-1 half for a controlled gate; the view's plan is
cached per (n, kind, targets).  So a pair of states stacked on one more
qubit above the circuit's, as the adjoint walk holds them, takes each gate
in one call.
Mid-circuit measurements and classically conditioned gates always execute
exactly, deferred: each conditioned rotation becomes a controlled rotation
on the measured qubit.  :class:`Circuit` does this in the one walk that
checks its rules when it is built, so the check that passes an op is the
one that makes its rewrite exact.  It then holds what runs, which every
function here and in :mod:`qccnn.autodiff` reads: the encoding prefix as a
phase program, the body (the deferred ops after it) and the readout signs.

The prefix is the patch encoding of the ansatz circuits, the diagonal ZZ
feature map of Havlicek et al. 2019 (arXiv:1804.11279): leading Hadamards
on distinct qubits, then RZ phases with input angles, alone or framed by
CNOTs.  The program holds the Hadamard qubits and one step per RZ, with
a parity table that picks one of its two phases per amplitude.
:func:`encode` fills the Hadamards' amplitudes and runs each step as one
broadcast multiply, which gives each amplitude the gates' own factors in
op order without simulating a gate, and it depends on the inputs only, so
circuits that differ only in their parameters share it.
No input angle follows the prefix (:class:`Circuit` rejects one), so the
body is one matrix for every row: :func:`unitary` builds it by running its
gates on the 2**n identity columns, and a caller applies it to the
encoding as one matrix product.  Circuits that differ only in their
parameters (the kernels of a layer, the parameter draws of an effective
dimension) build their matrices together, as kernels x 2**n columns with
one parameter row per kernel.  :func:`readouts` reads the readout Z
expectations off a final state, one sign row per readout.

A circuit runs on ``circuit.width`` qubits, its `num_qubits` less a folded
ancilla parity gadget: a top qubit that the prefix leaves in |+> and that
the body touches only at its end, with CY/CZ gates from other qubits onto
it and then a Hadamard.  That qubit's Z readout is its controls' Z parity
on the others (see :func:`_fold_parity_gadget`), so its sign row holds
that parity and no state holds the qubit.  Every other qubit keeps its bit
and its axis, so the sizes above are 2**width where the text says 2**n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

MAX_QUBITS = 8

SINGLE_QUBIT_KINDS = frozenset({"H", "X", "RX", "RY", "RZ"})
TWO_QUBIT_KINDS = frozenset({"CNOT", "CY", "CZ", "CRX", "CRY", "CRZ"})
ROTATION_KINDS = frozenset({"RX", "RY", "RZ", "CRX", "CRY", "CRZ"})
GATE_KINDS = SINGLE_QUBIT_KINDS | TWO_QUBIT_KINDS

# Controlled kind -> the single-qubit action it applies when the control is 1.
_CONTROLLED_BASE = {"CNOT": "X", "CY": "Y", "CZ": "Z", "CRX": "RX", "CRY": "RY", "CRZ": "RZ"}

# Deferred-measurement rewrite of a conditioned rotation.
_CONTROLLED_FORM = {b: k for k, b in _CONTROLLED_BASE.items() if k in ROTATION_KINDS}

# Gates diagonal in the computational basis commute with a Z measurement on
# every qubit they touch, so they may follow a mid-circuit measurement.
_Z_DIAGONAL_KINDS = frozenset({"RZ", "CZ", "CRZ"})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GateOp:
    """One gate application.

    For rotation kinds exactly one angle source must be set: `param_slot`
    (trainable parameter index), `input_idx` (angle = pi times the product
    of the indexed circuit inputs) or `angle` (constant, radians).
    `condition` names a classical bit; the gate applies only when that
    recorded measurement outcome is 1.
    """

    kind: str
    targets: tuple[int, ...]
    param_slot: int | None = None
    input_idx: tuple[int, ...] | None = None
    angle: float | None = None
    condition: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind in SINGLE_QUBIT_KINDS else 2
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if arity == 2 and self.targets[0] == self.targets[1]:
            raise ValueError(f"{self.kind} targets must be distinct, got {self.targets}")
        sources = sum(s is not None for s in (self.param_slot, self.input_idx, self.angle))
        if self.kind in ROTATION_KINDS:
            if sources != 1:
                raise ValueError(f"{self.kind} needs exactly one angle source, got {sources}")
        elif sources:
            raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class MidMeasure:
    """Computational-basis measurement of one qubit into a classical bit."""

    qubit: int
    classical_bit: int


@dataclass(frozen=True)
class Circuit:
    """Ordered gate program with trainable parameter and input slots.

    `readout` lists the qubits whose Pauli-Z expectations
    :func:`readouts` returns, in order.  Construction walks the ops once: it
    checks the template rules and defers the ops, each conditioned rotation
    rewritten to a controlled rotation whose control is the measured qubit.
    The rules are what make that rewrite exact: a qubit is measured at most
    once and is then only the control of a gate or the target of a
    Z-diagonal one; a conditioned gate is an RX, RY or RZ on a qubit not yet
    measured.  `prefix` is the encoding prefix of the deferred ops as a
    phase program (:func:`_compile_prefix`), which :func:`encode` runs;
    `body` is the ops after it, which :func:`unitary` and the adjoint walk
    run; row j of the read-only (readouts, 2**width) `signs` is readout j's
    Z sign per basis state.  No input angle may follow the prefix, so each
    one is an RZ after the leading Hadamards, alone or framed by CNOTs.
    `width` is the number of qubits those three act on: `num_qubits`, or
    one less where :func:`_fold_parity_gadget` compiles an ancilla parity
    gadget on the top qubit away, exactly: the prefix without its Hadamard,
    the body without its CY/CZ-then-H tail, and the top qubit's sign row the
    product of its controls' rows.  None of the four takes part in
    ``repr``, ``==`` or the hash.
    """

    num_qubits: int
    ops: tuple
    num_params: int = 0
    num_inputs: int = 0
    readout: tuple[int, ...] = ()
    width: int = field(init=False, repr=False, compare=False)
    prefix: tuple = field(init=False, repr=False, compare=False)
    body: tuple = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {self.num_qubits}")
        seen_slots = set()
        qubit_of_bit: dict[int, int] = {}
        measured = qubit_of_bit.values()  # a live view: the qubits measured so far
        deferred = []
        for op in self.ops:
            if isinstance(op, MidMeasure):
                self._check_qubit(op.qubit)
                if op.classical_bit in qubit_of_bit:
                    raise ValueError(f"classical bit {op.classical_bit} assigned twice")
                if op.qubit in measured:
                    raise ValueError(f"qubit {op.qubit} measured twice; not supported")
                qubit_of_bit[op.classical_bit] = op.qubit
                continue
            if not isinstance(op, GateOp):
                raise ValueError(f"unsupported op {op!r}")
            for q in op.targets:
                self._check_qubit(q)
            if op.param_slot is not None:
                if not 0 <= op.param_slot < self.num_params:
                    raise ValueError(f"parameter slot {op.param_slot} out of range")
                seen_slots.add(op.param_slot)
            if op.input_idx is not None:
                for i in op.input_idx:
                    if not 0 <= i < self.num_inputs:
                        raise ValueError(f"input index {i} out of range")
            target = op.targets[-1]  # the control of a controlled kind comes first
            if op.condition is None:
                if target in measured and op.kind not in _Z_DIAGONAL_KINDS:
                    raise ValueError(
                        f"{op.kind} on {op.targets} reuses a measured qubit; outside the"
                        " deferred-measurement-valid class"
                    )
                deferred.append(op)
                continue
            if op.condition not in qubit_of_bit:
                raise ValueError(f"condition on classical bit {op.condition} before it is assigned")
            if op.kind not in _CONTROLLED_FORM:
                raise ValueError(f"conditioned {op.kind} cannot be deferred; only RX/RY/RZ can")
            control = qubit_of_bit[op.condition]
            if target == control:
                raise ValueError(f"conditioned gate targets its own measured qubit {target}")
            if target in measured:
                raise ValueError(f"conditioned gate targets already-measured qubit {target}")
            deferred.append(replace(op, kind=_CONTROLLED_FORM[op.kind],
                                    targets=(control, *op.targets), condition=None))
        if seen_slots != set(range(self.num_params)):
            missing = sorted(set(range(self.num_params)) - seen_slots)
            raise ValueError(f"parameter slots never referenced: {missing}")
        for q in self.readout:
            self._check_qubit(q)
        length, program = _compile_prefix(self.num_qubits, deferred)
        body = tuple(deferred[length:])
        if any(op.input_idx is not None for op in body):
            raise ValueError("an input angle follows the encoding prefix")
        width, controls = self.num_qubits, None
        folded = _fold_parity_gadget(width, program, body)
        if folded is not None:
            program, body, controls = folded
            width -= 1
        # A readout's sign is the product of its qubits' Z signs; a folded
        # top qubit's are its controls'.
        states = np.arange(1 << width)
        signs = np.ones((len(self.readout), 1 << width))
        for row, q in zip(signs, self.readout):
            for z in controls if q == width else (q,):
                row *= 1.0 - 2.0 * (states >> z & 1)
        signs.setflags(write=False)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "prefix", program)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "signs", signs)

    def _check_qubit(self, q: int):
        if not 0 <= q < self.num_qubits:
            raise ValueError(f"qubit {q} out of range for {self.num_qubits}-qubit circuit")


# ---------------------------------------------------------------------------
# the encoding prefix as a phase program
# ---------------------------------------------------------------------------


def _compile_prefix(num_qubits: int, ops) -> tuple[int, tuple]:
    """The length of the encoding prefix of the deferred `ops`, and its phase program.

    The prefix is the Hadamards on distinct qubits that lead `ops`, then the
    longest run of CNOT gates and RZ gates with an input angle, cut back to
    the last op after which the CNOT frame is the identity.  Any other op
    ends it.  The frame maps a basis state b of the Hadamards' superposition
    to the current one: current bit q is the parity of ``b & masks[q]``.  So
    at the end of the prefix the state is the superposition with one phase
    per RZ, on the Z-string of its target's frame row.

    The program is ``(hadamard qubits, steps)``, with one ``(op, table)``
    step per RZ in op order.  The table is an n-axis integer array in the
    axis order of the state view, of size 2 on the axis of each Hadamard
    qubit in the RZ's Z-string and 1 on every other: the parity of those
    qubits' bits, which indexes the RZ's two phases.
    """
    masks = [1 << q for q in range(num_qubits)]  # the frame's rows
    hadamards, steps = [], []
    length, program = 0, ((), ())
    for i, op in enumerate(ops):
        leading = i == len(hadamards)  # every earlier op is a Hadamard
        if op.kind == "H" and leading and op.targets[0] not in hadamards:
            hadamards.append(op.targets[0])
        elif op.kind == "CNOT":
            control, target = op.targets
            masks[target] ^= masks[control]
        elif op.kind == "RZ" and op.input_idx is not None:
            q = op.targets[0]
            table = np.zeros((1,) * num_qubits, dtype=np.intp)
            for h in hadamards:
                if masks[q] >> h & 1:  # qubit h's bit, along axis n-1-h
                    table = table ^ np.arange(2).reshape((2,) + (1,) * h)
            table.setflags(write=False)
            steps.append((op, table))
        else:
            break
        if all(m == 1 << q for q, m in enumerate(masks)):
            length, program = i + 1, (tuple(hadamards), tuple(steps))
    return length, program


def _fold_parity_gadget(num_qubits: int, program: tuple, body: tuple):
    """The top qubit's parity gadget compiled away: (program, body, controls), or None.

    The gadget is a top qubit t = n-1 that the prefix leaves in |+>, as a
    leading Hadamard in no RZ's Z-string, and that no body op touches until
    the body ends with CY or CZ gates from other qubits onto t, then H(t).
    Read backwards through that tail, Z_t becomes X_t times the product of
    the controls' Z (for CY as for CZ), and X_t on |+> is 1 (the Clifford
    rule, Gottesman 1998, arXiv:quant-ph/9807006).  So t's readout is the
    controls' Z parity on the other qubits, which keep their bits, and any
    other readout is unchanged.  The returned program drops t's Hadamard and
    the leading axis of each table, the body drops the tail, and `controls`
    lists the tail's controls in order, a repeated one as often as it acts.
    """
    t = num_qubits - 1
    hadamards, steps = program
    if t not in hadamards or any(table.shape[0] == 2 for _, table in steps):
        return None
    if not body or body[-1] != GateOp("H", (t,)):
        return None
    start = len(body) - 1
    while start > 0 and body[start - 1].kind in ("CY", "CZ") and body[start - 1].targets[1] == t:
        start -= 1
    if start == len(body) - 1 or any(t in op.targets for op in body[:start]):
        return None
    program = (tuple(q for q in hadamards if q != t), tuple((op, table[0]) for op, table in steps))
    return program, body[:start], tuple(op.targets[0] for op in body[start:-1])


# ---------------------------------------------------------------------------
# gate kernels
# ---------------------------------------------------------------------------


def _half_angle(theta):
    """cos/sin of theta/2, elementwise."""
    t = np.multiply(theta, 0.5)
    return np.cos(t), np.sin(t)


@lru_cache(maxsize=None)
def _plan(n: int, kind: str, targets: tuple) -> tuple:
    """(base kind, control index, axis) of one gate on a (2,)*n + columns view.

    ``psi[control].swapaxes(0, axis)`` is the view the gate acts on, and
    whose halves the adjoint walk's generator overlaps read: the control-1
    half of a controlled kind (the whole state for the others), with the
    target's axis leading.
    """
    axis = n - 1 - targets[-1]
    if kind not in _CONTROLLED_BASE:
        return kind, (), axis
    control = n - 1 - targets[0]
    return _CONTROLLED_BASE[kind], (slice(None),) * control + (1,), axis - (control < axis)


def _apply_kind(psi: np.ndarray, kind: str, targets: tuple, rotation=None):
    """Apply one gate in place to `psi`, a (2,)*n + (groups, columns) view of the state.

    Qubit q lives on axis n-1-q.  Every kind is a 2x2 base action on the
    view :func:`_plan` gives, whose ``p[0]`` and ``p[1]`` are the target's
    halves.  The view spans every other axis, so two states stacked on an
    extra most significant qubit, which no gate targets, take each gate in
    one call.  `rotation` is the (2, groups, 1) stack :func:`_rotations`
    gives a rotation.  Each amplitude gets the factors of ``c*a - 1j*s*b``,
    ``c*a - s*b`` and ``a * (c - 1j*s)``, in that order.
    """
    base, control, axis = _plan(psi.ndim - 2, kind, targets)
    p = (psi[control] if control else psi).swapaxes(0, axis)
    if base == "RX":
        c, js = rotation
        t = js * p[::-1]
        np.multiply(c, p, out=p)
        p -= t
    elif base == "RY":
        c, s = rotation
        t = s * p[::-1]
        np.multiply(c, p, out=p)
        p[0] -= t[0]
        p[1] += t[1]
    elif base == "RZ":
        p *= rotation[(slice(None),) + (None,) * (p.ndim - 3)]
    elif base == "H":
        a, b = p
        t = a + b
        np.subtract(a, b, out=b)
        b *= _INV_SQRT2
        np.multiply(t, _INV_SQRT2, out=a)
    elif base == "X":
        p[...] = p[::-1]  # numpy buffers the overlapping source
    elif base == "Y":
        a = p[0].copy()
        np.multiply(-1j, p[1], out=p[0])
        np.multiply(1j, a, out=p[1])
    else:  # Z
        p[1] *= -1.0


def _rotation_forms(c: np.ndarray, s: np.ndarray) -> dict:
    """Per base rotation, the stack of two tables :func:`_apply_kind` reads, from cos/sin tables.

    RX takes (c, 1j*s), RY (c, s) and RZ its phases (c - 1j*s, c + 1j*s).
    """
    js = 1j * s
    return {"RX": np.array((c, js)), "RY": np.array((c, s)), "RZ": np.array((c - js, c + js))}


def _rotations(ops, params: np.ndarray, sign: float = 1.0) -> list:
    """Per op of a body, the `rotation` :func:`_apply_kind` takes at sign * its angle.

    None for a fixed gate.  One :func:`_half_angle` pass over the (groups,
    num_params) `params` and one :func:`_rotation_forms` pass give every
    parameterised rotation the (2, groups, 1) stack of its slot; a
    constant angle takes a (2, 1, 1) one of its own.  No body op takes an
    input angle (:class:`Circuit` rejects one).
    """
    forms = _rotation_forms(*_half_angle(sign * params))
    out = []
    for op in ops:
        base = _CONTROLLED_BASE.get(op.kind, op.kind)
        if base not in forms:
            out.append(None)
        elif op.param_slot is None:
            out.append(_rotation_forms(*_half_angle(np.full((1, 1), sign * op.angle)))[base])
        else:
            out.append(forms[base][..., op.param_slot, None])
    return out


def _resolve_angle(op: GateOp, inputs: np.ndarray) -> np.ndarray:
    """Per-row angle of one encoding RZ: pi times the product of its inputs.

    `inputs` is a (rows, num_inputs) matrix.
    """
    prod = inputs[:, op.input_idx[0]]
    for i in op.input_idx[1:]:
        prod = prod * inputs[:, i]
    return np.pi * prod


def _check_params(circuit: Circuit, params, rows: int | None = None) -> np.ndarray:
    """`params` as a (groups, num_params) matrix, group g for the g-th block of state columns.

    The blocks are equal and consecutive, so the group count must divide
    the `rows` state columns; None skips that check.  One group per row is
    the case groups = rows.
    """
    params = np.asarray(params, dtype=float)
    if (params.ndim != 2 or params.shape[1] != circuit.num_params or not len(params)
            or rows is not None and rows % len(params)):
        raise ValueError(
            f"circuit takes {circuit.num_params} parameters per group, as a (groups,"
            f" {circuit.num_params}) parameter matrix whose group count divides the state"
            f" columns; got shape {params.shape}"
        )
    return params


def _check_inputs(circuit: Circuit, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != circuit.num_inputs:
        raise ValueError(
            f"circuit requires {circuit.num_inputs} inputs per row, as a"
            f" (rows, {circuit.num_inputs}) matrix; got shape {inputs.shape}"
        )
    if np.any(np.abs(inputs) > 1.0 + 1e-12):
        raise ValueError("inputs must be normalized to [-1, 1]")
    return inputs


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _state_view(circuit: Circuit, state: np.ndarray, columns: tuple,
                stacked: bool = False) -> np.ndarray:
    """The (2,)*n + `columns` view of a (2**n, prod(columns)) state; writes go to the state.

    n is ``circuit.width``.  A `stacked` state is a (2, 2**n, prod(columns))
    pair, viewed as (2,)*(n+1) + `columns`: its stack axis is one more
    qubit, above the rest.
    """
    lead = (2,) if stacked else ()
    shape = lead + (1 << circuit.width, math.prod(columns))
    if state.shape != shape or state.dtype != complex or not state.flags.c_contiguous:
        raise ValueError(
            f"state must be a C-contiguous complex {shape} array, got"
            f" {state.dtype} {state.shape}"
        )
    return state.reshape(lead + (2,) * circuit.width + columns)


def encode(circuit: Circuit, inputs) -> np.ndarray:
    """State after ``circuit.prefix``, as a (2**n, rows) array.

    `inputs` is a (rows, num_inputs) matrix; an input-free circuit takes
    (rows, 0).  The amplitudes the Hadamards reach, every Hadamard qubit
    either 0 or 1 and every other qubit 0, start at 1 multiplied by
    1/sqrt(2) once per Hadamard, as the h Hadamards leave them; each RZ
    step then multiplies all of them at once by the phase its parity table
    picks.
    Each amplitude so receives the same factors, in the same order, as from
    the prefix's gates, and the state equals theirs to the bit.
    """
    inputs = _check_inputs(circuit, inputs)
    rows = inputs.shape[0]
    n = circuit.width
    hadamards, steps = circuit.prefix
    angles = np.empty((len(steps), rows))
    for i, (op, _) in enumerate(steps):
        angles[i] = _resolve_angle(op, inputs)
    c, s = _half_angle(angles)  # one cos/sin pass for every RZ
    # The gates' phases c - 1j*s and c + 1j*s to the bit, without complex
    # temporaries: 1j*s has real part +-0, which leaves c as it is (a cosine
    # is never 0), and imaginary part s, so the imaginary parts are 0 - s and 0 + s.
    phase = np.empty((len(steps), 2, rows), dtype=complex)
    phase.real = c[:, None]
    np.subtract(0.0, s, out=phase[:, 0].imag)
    np.add(0.0, s, out=phase[:, 1].imag)
    state = np.zeros((1 << n, rows), dtype=complex)
    region = [slice(1)] * n  # the amplitudes the Hadamards reach
    for q in hadamards:
        region[n - 1 - q] = slice(None)
    amp = _state_view(circuit, state, (rows,))[tuple(region)]
    amp[...] = math.prod((_INV_SQRT2,) * len(hadamards))
    for (_, table), factors in zip(steps, phase):
        amp *= factors[table]
    return state


def unitary(circuit: Circuit, params) -> np.ndarray:
    """``circuit.body``, as one matrix per kernel.

    `params` is a (kernels, num_params) matrix.  The body's gates run once,
    gate by gate, on kernels copies of the 2**n identity columns, as a
    (kernels, 2**n) group view in which each kernel's columns take its
    parameter row.  The result is a (kernels, 2**n, 2**n) array, and
    ``unitary(c, p)[k] @ encode(c, x)`` is the final state of every row of
    `x` at ``p[k]``.
    """
    params = _check_params(circuit, params)
    kernels, dim = len(params), 1 << circuit.width
    u = np.tile(np.eye(dim, dtype=complex), kernels)
    psi = _state_view(circuit, u, (kernels, dim))
    for op, rotation in zip(circuit.body, _rotations(circuit.body, params)):
        _apply_kind(psi, op.kind, op.targets, rotation)
    return u.reshape(dim, kernels, dim).transpose(1, 0, 2)


def readouts(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Z expectations of the readout qubits in a (2**n, rows) final state.

    Readout j is the rows' probabilities times row j of ``circuit.signs``.
    Returns an array of shape (rows, len(readout)).
    """
    probs = np.ascontiguousarray((state.real**2 + state.imag**2).T)
    out = np.empty((state.shape[1], len(circuit.readout)))
    for j, signs in enumerate(circuit.signs):
        out[:, j] = probs @ signs
    return out


def run_deferred_batch(circuit: Circuit, params, inputs) -> np.ndarray:
    """Z expectations of the readout qubits at one (num_params,) parameter vector.

    `inputs` is a (rows, num_inputs) matrix; returns (rows, len(readout)).
    The benchmark harness (``perfbench/``) wraps this name.
    """
    return readouts(circuit, unitary(circuit, [params])[0] @ encode(circuit, inputs))
