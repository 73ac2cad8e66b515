"""Independent reference implementations used to cross-check production code.

The dense-matrix oracle builds the full 2^n x 2^n unitary of a circuit by
Kronecker lifting and straight matrix multiplication; it shares no code with
the production gate kernels.  Qubit ordering matches the package convention:
qubit 0 is the least significant bit of the basis index, so a single-qubit
matrix U on qubit q lifts to I_(2^(n-1-q)) (x) U (x) I_(2^q).

The deferral is rewritten here on its own: `deferred_ops` drops each
mid-circuit measurement and turns each gate conditioned on its bit into
the controlled gate on the measured qubit, so the dense checks of the
mid-circuit ansatze share no code with `Circuit`'s rewrite.  The shot
sampler runs mid-circuit measurements stochastically on the same dense
matrices, so it checks that deferral independently of both.

The parameter-shift jacobian differentiates on the same dense matrices, so it
checks the production adjoint gradient independently of its backward walk;
the Fisher information built on it explains effective dimensions without
the production scores.
"""

from dataclasses import replace

import numpy as np

from qccnn.sim import Circuit, GateOp, MidMeasure

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def single_qubit_matrix(kind: str, theta: float | None = None) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if kind == "Z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
    raise ValueError(kind)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def hadamard(state: np.ndarray, qubit: int):
    """H on `qubit` of an amplitude-major (2**n, rows) state, in place.

    The arithmetic of a Hadamard run gate by gate: with a and b the
    qubit-0 and qubit-1 halves, t = a + b, then b = (a - b) / sqrt(2) and
    a = t / sqrt(2), each product by the rounded 1/sqrt(2).  So a prefix
    run gate by gate through it and the simulator's other kernels gives
    the bits that `qccnn.sim.encode` must reproduce.
    """
    n = state.shape[0].bit_length() - 1
    halves = state.reshape(1 << (n - 1 - qubit), 2, -1)  # basis index = (high, bit q, low)
    a, b = halves[:, 0], halves[:, 1]
    t = a + b
    np.subtract(a, b, out=b)
    b *= _INV_SQRT2
    np.multiply(t, _INV_SQRT2, out=a)


def lift_single(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    return np.kron(np.eye(1 << (n - 1 - qubit)), np.kron(u, np.eye(1 << qubit)))


def gate_unitary(kind: str, targets, n: int, theta: float | None = None) -> np.ndarray:
    if kind in ("H", "X", "RX", "RY", "RZ"):
        return lift_single(single_qubit_matrix(kind, theta), targets[0], n)
    control, target = targets
    base = {"CNOT": "X", "CY": "Y", "CZ": "Z", "CRX": "RX", "CRY": "RY", "CRZ": "RZ"}[kind]
    u = single_qubit_matrix(base, theta)
    return lift_single(_P0, control, n) + lift_single(_P1, control, n) @ lift_single(
        u, target, n
    )


def op_unitary(op: GateOp, n: int, params, inputs=None) -> np.ndarray:
    """Dense matrix of one gate op with its angle resolved."""
    theta = None
    if op.param_slot is not None:
        theta = float(params[op.param_slot])
    elif op.input_idx is not None:
        theta = np.pi * float(np.prod(np.asarray(inputs)[list(op.input_idx)]))
    elif op.angle is not None:
        theta = float(op.angle)
    return gate_unitary(op.kind, op.targets, n, theta)


def deferred_ops(circuit: Circuit) -> tuple:
    """The ops of `circuit` with every mid-circuit measurement deferred.

    A measurement is dropped, and a gate conditioned on its bit becomes the
    controlled form of its kind ("C" + kind), with the measured qubit as
    control.  That is exact for the circuits `Circuit` accepts, whose
    measured qubits afterwards act only as controls.
    """
    qubit_of_bit, ops = {}, []
    for op in circuit.ops:
        if isinstance(op, MidMeasure):
            qubit_of_bit[op.classical_bit] = op.qubit
        elif op.condition is None:
            ops.append(op)
        else:
            control = qubit_of_bit[op.condition]
            ops.append(replace(op, kind="C" + op.kind, targets=(control, *op.targets),
                               condition=None))
    return tuple(ops)


def deferred_circuit(circuit: Circuit) -> Circuit:
    """`circuit` as the measurement-free circuit of its deferred ops; itself if it measures nothing."""
    measures = any(isinstance(op, MidMeasure) for op in circuit.ops)
    return replace(circuit, ops=deferred_ops(circuit)) if measures else circuit


def input_free_matrices(circuit: Circuit, params) -> tuple:
    """The dense matrices of a measurement-free circuit at one θ that no input changes.

    Returns ``(mats, later, shifts)``: per op, its matrix, or None where it
    takes an input angle; per op, the product of the gates after it, or
    None where one of those takes an input angle; and per parameterised op,
    the (coefficient, shift gate matrix) pairs of its `shift_rule` (None for
    the others).  `z_expectations_oracle`, `param_shift_jacobian` and
    `circuit_unitary` take it so that they do not rebuild these for every
    input row; each product is formed in the order they form it themselves,
    so their results keep every bit.
    """
    params = np.asarray(params, dtype=float)
    n = circuit.num_qubits
    mats = []
    for op in circuit.ops:
        assert isinstance(op, GateOp) and op.condition is None
        mats.append(None if op.input_idx is not None else op_unitary(op, n, params))
    later = [None] * len(mats)
    u = np.eye(1 << n, dtype=complex)
    for i in range(len(mats) - 1, -1, -1):
        later[i] = u
        if mats[i] is None:
            break
        u = u @ mats[i]
    shifts = [None if op.param_slot is None else
              [(coeff, gate_unitary(op.kind, op.targets, n, shift))
               for shift, coeff in shift_rule(op.kind)]
              for op in circuit.ops]
    return mats, later, shifts


def _op_matrices(circuit: Circuit, params, inputs, fixed) -> list:
    """Per op, its dense matrix: from `fixed` (`input_free_matrices`) where it holds one."""
    params = np.asarray(params, dtype=float)
    mats = fixed[0] if fixed is not None else [None] * len(circuit.ops)
    out = []
    for op, mat in zip(circuit.ops, mats):
        assert isinstance(op, GateOp) and op.condition is None
        out.append(op_unitary(op, circuit.num_qubits, params, inputs) if mat is None else mat)
    return out


def circuit_unitary(circuit: Circuit, params, inputs=None, fixed=None) -> np.ndarray:
    """Full unitary of a measurement-free circuit by matrix-chain product."""
    u = np.eye(1 << circuit.num_qubits, dtype=complex)
    for mat in _op_matrices(circuit, params, inputs, fixed):
        u = mat @ u
    return u


def _z_expectations(circuit: Circuit, psi: np.ndarray) -> np.ndarray:
    dim = 1 << circuit.num_qubits
    probs = np.abs(psi) ** 2
    out = []
    for q in circuit.readout:
        signs = np.where((np.arange(dim) >> q) & 1 == 0, 1.0, -1.0)
        out.append(float(probs @ signs))
    return np.asarray(out)


def z_expectations_oracle(circuit: Circuit, params, inputs=None, fixed=None) -> np.ndarray:
    """Readout Z expectations via the dense-matrix statevector."""
    dim = 1 << circuit.num_qubits
    psi = circuit_unitary(circuit, params, inputs, fixed) @ np.eye(dim, 1, dtype=complex)[:, 0]
    return _z_expectations(circuit, psi)


def sample_shots(circuit: Circuit, params, shots: int, seed: int, inputs=None):
    """Shot-by-shot execution sampling every mid-circuit measurement.

    Each shot collapses a measured qubit by the Born rule (outcome 1 when
    its uniform draw falls below p1; one ``rng.random(shots)`` per
    measurement from ``default_rng(seed)``), renormalizes, and applies a
    conditioned gate only when its recorded bit is 1.  Returns
    ``(estimates, shot_values, outcomes)``: ``shot_values[s, j]`` is the
    exact Z expectation of readout qubit j on the final state of shot s,
    ``estimates`` its mean over shots, and ``outcomes[s, b]`` classical bit
    b of shot s.
    """
    params = np.asarray(params, dtype=float)
    n = circuit.num_qubits
    basis = np.arange(1 << n)
    state = np.zeros((shots, basis.size), dtype=complex)
    state[:, 0] = 1.0
    bits = [op.classical_bit for op in circuit.ops if isinstance(op, MidMeasure)]
    outcomes = np.zeros((shots, max(bits, default=-1) + 1), dtype=np.uint8)
    rng = np.random.default_rng(seed)
    for op in circuit.ops:
        if isinstance(op, MidMeasure):
            one = (basis >> op.qubit) & 1 == 1
            p1 = (np.abs(state[:, one]) ** 2).sum(axis=1)
            bit = rng.random(shots) < p1
            state[:, one] *= bit[:, None]
            state[:, ~one] *= ~bit[:, None]
            state /= np.sqrt(np.where(bit, p1, 1.0 - p1))[:, None]
            outcomes[:, op.classical_bit] = bit
            continue
        u_t = op_unitary(op, n, params, inputs).T
        if op.condition is None:
            state = state @ u_t
        else:
            rows = outcomes[:, op.condition] == 1
            state[rows] = state[rows] @ u_t
    probs = np.abs(state) ** 2
    signs = np.stack([np.where((basis >> q) & 1 == 0, 1.0, -1.0) for q in circuit.readout], axis=1)
    shot_values = probs @ signs
    return shot_values.mean(axis=0), shot_values, outcomes


# (shift, coefficient) pairs.  Generators with eigenvalues +-1/2 take the
# two-term rule; controlled rotations, eigenvalues {0, +-1/2}, the four-term rule.
_TWO_TERM = ((np.pi / 2, 0.5), (-np.pi / 2, -0.5))
_C1 = (np.sqrt(2.0) + 1.0) / (4.0 * np.sqrt(2.0))
_C2 = (np.sqrt(2.0) - 1.0) / (4.0 * np.sqrt(2.0))
_FOUR_TERM = ((np.pi / 2, _C1), (-np.pi / 2, -_C1), (3 * np.pi / 2, -_C2), (-3 * np.pi / 2, _C2))


def shift_rule(kind: str):
    """(shift, coefficient) pairs of the parameter-shift rule for one rotation kind."""
    if kind in ("RX", "RY", "RZ"):
        return _TWO_TERM
    if kind in ("CRX", "CRY", "CRZ"):
        return _FOUR_TERM
    raise ValueError(f"no parameter-shift rule for gate kind {kind!r}")


def param_shift_jacobian(circuit: Circuit, params, inputs=None, fixed=None) -> np.ndarray:
    """d<Z_j>/d theta_p of a measurement-free circuit at one input vector.

    Returns shape (num_params, readouts).  Each parameterised gate occurrence
    is shifted by inserting a constant rotation of the same kind right after
    it (R(t + s) = R(s) R(t)), and every shifted circuit is evaluated on
    dense matrices: the state after the occurrence, the shift gate, then the
    product of the later gates.  Mid-circuit ansatze are passed in deferred
    form, whose rewrite `sample_shots` checks.  `fixed` is the circuit's
    `input_free_matrices` at `params`, or None to build them here.
    """
    n = circuit.num_qubits
    if fixed is None:
        fixed = input_free_matrices(circuit, params)
    mats = _op_matrices(circuit, params, inputs, fixed)
    # later[i]: the product of the gates after op i.
    later = list(fixed[1])
    for i in range(len(mats) - 2, -1, -1):
        if later[i] is None:
            later[i] = later[i + 1] @ mats[i + 1]
    jac = np.zeros((circuit.num_params, len(circuit.readout)))
    psi = np.eye(1 << n, 1, dtype=complex)[:, 0]
    for i, op in enumerate(circuit.ops):
        psi = mats[i] @ psi
        if op.param_slot is None:
            continue
        for coeff, gate in fixed[2][i]:
            shifted = later[i] @ (gate @ psi)
            jac[op.param_slot] += coeff * _z_expectations(circuit, shifted)
    return jac


def fisher_information(circuit: Circuit, params, xs) -> np.ndarray:
    """Fisher information of a measurement-free circuit's class distribution over rows `xs`.

    The classes are those of the effective dimension: a softmax over (z, -z)
    for one readout z, over the readouts otherwise.  Each row's readouts and
    their jacobian come from the dense matrices (`z_expectations_oracle`,
    `param_shift_jacobian`).  The labels are not drawn: each class's score
    outer product is weighted by its probability.  Returns the mean over
    the rows, a (num_params, num_params) matrix.
    """
    fisher = np.zeros((circuit.num_params, circuit.num_params))
    fixed = input_free_matrices(circuit, params)  # built once for every row
    for x in xs:
        z = z_expectations_oracle(circuit, params, x, fixed)
        jac = param_shift_jacobian(circuit, params, x, fixed)  # (num_params, readouts)
        if len(z) == 1:  # the logits are (z, -z)
            z, jac = np.concatenate([z, -z]), np.concatenate([jac, -jac], axis=1)
        p = np.exp(z - z.max())
        p /= p.sum()
        scores = jac - (jac @ p)[:, None]  # d log p_y / d theta, one column per class y
        fisher += (scores * p) @ scores.T
    return fisher / len(xs)


def jacobian_rank(jac: np.ndarray, rtol: float = 1e-8) -> int:
    """Numerical rank of a jacobian: its singular values above rtol times the largest."""
    singular = np.linalg.svd(jac, compute_uv=False)
    return int((singular > rtol * singular[0]).sum())


# The kinds a circuit's body may hold (qccnn.sim.BODY_KINDS, written out here).
_RANDOM_KINDS = ("X", "RX", "RY", "RZ", "CNOT", "CRX", "CRY", "CRZ")


def random_circuit(rng, num_qubits: int = 4, depth: int = 20) -> Circuit:
    """Measurement-free random circuit of body kinds with densely referenced param slots."""
    ops = []
    slot = 0
    for _ in range(depth):
        kind = _RANDOM_KINDS[rng.integers(len(_RANDOM_KINDS))]
        if kind in ("X", "RX", "RY", "RZ"):
            targets = (int(rng.integers(num_qubits)),)
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            targets = (int(a), int(b))
        if kind in ("RX", "RY", "RZ", "CRX", "CRY", "CRZ"):
            ops.append(GateOp(kind, targets, param_slot=slot))
            slot += 1
        else:
            ops.append(GateOp(kind, targets))
    return Circuit(num_qubits, tuple(ops), num_params=slot, readout=tuple(range(num_qubits)))


def encoded_random_circuit(rng, num_qubits: int = 4, depth: int = 20) -> Circuit:
    """`random_circuit` behind an input encoding: H and RZ(pi x_q) per qubit, RZ(pi x_0 x_1)."""
    body = random_circuit(rng, num_qubits, depth)
    encoding = [GateOp("H", (q,)) for q in range(num_qubits)]
    encoding += [GateOp("RZ", (q,), input_idx=(q,)) for q in range(num_qubits)]
    encoding.append(GateOp("RZ", (1,), input_idx=(0, 1)))
    return Circuit(num_qubits, tuple(encoding) + body.ops, body.num_params, num_qubits,
                   body.readout)


def finite_difference_gradient(f, params, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function of a parameter vector."""
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# a whole training run, written out
# ---------------------------------------------------------------------------

# Adam's decay rates and denominator guard (Kingma & Ba 2015, arXiv:1412.6980).
_ADAM = (0.9, 0.999, 1e-8)


def _windows(image: np.ndarray, stride: int) -> list:
    """Every 2x2 window of an (H, W) image at `stride`, row by row, each read row-major."""
    h, w = image.shape
    return [np.array([image[i + di, j + dj] for di in range(2) for dj in range(2)])
            for i in range(0, h - 1, stride) for j in range(0, w - 1, stride)]


def _quantum_front(ansatz, kernels: np.ndarray):
    """(forward, backward) of quantum kernels on one image's windows, on the dense matrices.

    Kernel k's readout r on window p is feature (k * readouts + r) * windows + p:
    each kernel readout is one feature map, and a map lists its windows in order.
    `backward(windows, features, d_features)` gives the kernels' gradient
    from the parameter-shift jacobian of every window.
    """
    circuit = deferred_circuit(ansatz.circuit)
    fixed = [input_free_matrices(circuit, theta) for theta in kernels]
    readouts = len(circuit.readout)
    post = ansatz.postprocess

    def forward(windows):
        features = np.empty(len(kernels) * readouts * len(windows))
        for k in range(len(kernels)):
            for p, x in enumerate(windows):
                for r, value in enumerate(z_expectations_oracle(circuit, kernels[k], x, fixed[k])):
                    if post == "sign":
                        value = np.sign(value)
                    elif post == "tanh":
                        value = np.tanh(value)
                    features[(k * readouts + r) * len(windows) + p] = value
        return features

    def backward(windows, features, d_features):
        grad = np.zeros(kernels.shape)
        if post == "sign":  # flat almost everywhere
            return {"kernels": grad}
        for k in range(len(kernels)):
            for p, x in enumerate(windows):
                jac = param_shift_jacobian(circuit, kernels[k], x, fixed[k])
                for r in range(readouts):
                    f = (k * readouts + r) * len(windows) + p
                    # tanh' = 1 - tanh^2, read off the feature
                    slope = 1.0 - features[f] ** 2 if post == "tanh" else 1.0
                    grad[k] += d_features[f] * slope * jac[:, r]
        return {"kernels": grad}

    return forward, backward


def _classical_front(filters: np.ndarray, bias: np.ndarray, relu: bool):
    """(forward, backward) of the 2x2 filters on one image's windows, by nested loops."""

    def forward(windows):
        out = np.zeros((len(filters), len(windows)))
        for c in range(len(filters)):
            for p, x in enumerate(windows):
                for di in range(2):
                    for dj in range(2):
                        out[c, p] += filters[c, di, dj] * x[2 * di + dj]
                out[c, p] += bias[c]
        return (np.maximum(out, 0.0) if relu else out).ravel()

    def backward(windows, features, d_features):
        d_out = d_features.reshape(len(filters), len(windows))
        if relu:
            d_out = d_out * (features.reshape(d_out.shape) > 0)
        d_filters = np.zeros(filters.shape)
        for c in range(len(filters)):
            for p, x in enumerate(windows):
                for di in range(2):
                    for dj in range(2):
                        d_filters[c, di, dj] += d_out[c, p] * x[2 * di + dj]
        return {"filters": d_filters, "conv_bias": d_out.sum(axis=1)}

    return forward, backward


def train_oracle(ansatz, params: dict, train: tuple, val: tuple, *, epochs: int,
                 batch_size: int, lr: float, seed: int, stride: int, relu: bool = False):
    """A training run written out: ``(per-epoch metrics, final parameters)``.

    `ansatz` is a quantum front's ansatz, or None for the classical front
    (with `relu`); `params` holds the initial parameters by checkpoint group,
    and `train` and `val` are (images, labels) pairs.  Each epoch takes the
    permutation ``default_rng(seed)`` draws next, and each batch one Adam
    step on the mean softmax cross-entropy of its images.  An image's
    features are its front's maps, flattened map by map; its logits are
    the dense head's.  An epoch's metrics are (train accuracy, train loss,
    validation accuracy, validation loss): the train ones are means over
    the epoch's images as each batch saw them, the validation ones over
    the split at the epoch's end.
    """
    params = {name: np.array(value, dtype=float) for name, value in params.items()}
    moments = {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    beta1, beta2, eps = _ADAM
    rng = np.random.default_rng(seed)
    steps, history = 0, []

    def front():
        if ansatz is None:
            return _classical_front(params["filters"], params["conv_bias"], relu)
        return _quantum_front(ansatz, params["kernels"])

    def image_pass(forward, windows, label):
        """(loss, correct, features, dLoss/dlogits) of one image's windows."""
        features = forward(windows)
        logits = params["head_weights"] @ features + params["head_bias"]
        exp = np.exp(logits - logits.max())
        probs = exp / exp.sum()
        d_logits = probs.copy()
        d_logits[label] -= 1.0
        return -np.log(probs[label]), int(np.argmax(logits) == label), features, d_logits

    for _ in range(epochs):
        order = rng.permutation(len(train[0]))
        loss_sum, correct_sum = 0.0, 0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            forward, backward = front()
            grads = {name: np.zeros_like(p) for name, p in params.items()}
            for i in batch:
                windows = _windows(train[0][i], stride)
                loss, correct, features, d_logits = image_pass(forward, windows, train[1][i])
                loss_sum += loss
                correct_sum += correct
                d_logits /= len(batch)
                grads["head_weights"] += np.outer(d_logits, features)
                grads["head_bias"] += d_logits
                d_features = params["head_weights"].T @ d_logits
                for name, grad in backward(windows, features, d_features).items():
                    grads[name] += grad
            steps += 1
            for name, grad in grads.items():
                m, v = moments[name]
                m[...] = beta1 * m + (1 - beta1) * grad
                v[...] = beta2 * v + (1 - beta2) * grad**2
                m_hat, v_hat = m / (1 - beta1**steps), v / (1 - beta2**steps)
                params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        forward, _ = front()
        val_loss, val_correct = 0.0, 0
        for image, label in zip(*val):
            loss, correct, _, _ = image_pass(forward, _windows(image, stride), label)
            val_loss += loss
            val_correct += correct
        n, n_val = len(order), len(val[0])
        history.append((correct_sum / n, loss_sum / n, val_correct / n_val, val_loss / n_val))
    return history, params
