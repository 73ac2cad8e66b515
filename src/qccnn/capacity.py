"""Empirical Fisher information and effective dimension of ansatz circuits.

The circuit defines a conditional class distribution p(y|x; theta) as a
softmax over its readouts: single-readout circuits use the two-class softmax
over (z, -z); the four-readout convolution circuit uses a softmax over its
four outputs.  The Fisher information matrix is estimated empirically from
the score outer products of samples (x_j, y_j) with y_j drawn from the model
itself, and the effective dimension aggregates normalized-FIM determinants
over uniformly drawn parameter vectors:

    ed = 2 * log( mean_s sqrt(det(I + kappa * Fhat_s)) ) / log(kappa),
    kappa = gamma * n / (2 * pi * log n),

with Fhat_s = d * F_s / mean_s tr(F_s).  The reported value is divided by
the parameter count d for comparison across circuits.

The θ draws of one estimate are simulated together, in batches of at most
2048 rows, through the quantum layer's encode-and-unitary path: one forward
and one adjoint walk per batch instead of per draw.  Draw d owns the d-th
block of consecutive rows of a batch, and both the forward and the walk
take the batch's (draws, num_params) θ matrix as it is, one row per draw.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import readout_gradient
from .circuits import build_ansatz
from .data import Dataset, extract_patches
from .sim import (
    Circuit,
    encode,
    readouts,
    # Unused here: perfbench wraps qccnn.capacity:run_deferred_batch and a test
    # asserts that every wrap target resolves.  The ED simulates via _forward.
    run_deferred_batch,  # noqa: F401
    unitary,
)

_PSD_TOLERANCE = -1e-10

# Rows per simulation in effective_dimension: whole θ draws, at least one.
# Larger batches spend less time per gate in Python but hold larger states.
_BATCH_ROWS = 2048


# ---------------------------------------------------------------------------
# class probabilities and scores
# ---------------------------------------------------------------------------


def _softmax(outputs: np.ndarray) -> np.ndarray:
    shifted = outputs - outputs.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _logit_map(num_readouts: int) -> np.ndarray:
    """The (readouts, classes) matrix from readouts to softmax inputs: (z, -z) for one z."""
    return np.array([[1.0, -1.0]]) if num_readouts == 1 else np.eye(num_readouts)


def class_probabilities(readouts: np.ndarray) -> np.ndarray:
    """Class distribution rows from (rows, readouts) circuit readouts.

    One readout z: two classes, softmax over (z, -z).  Four readouts:
    softmax over all four.
    """
    readouts = np.asarray(readouts, dtype=float)
    return _softmax(readouts @ _logit_map(readouts.shape[1]))


def _log_prob_weights(probs, ys, num_readouts):
    """d log p(y)/d<Z_j> for each row: shape (rows, num_readouts).

    probs: (rows, classes); ys: (rows,).  The softmax gives d log p_y/d logits
    as 1 at the label minus probs; the logit map carries it to the readouts.
    """
    residual = -probs
    residual[np.arange(len(ys)), ys] += 1.0
    return residual @ _logit_map(num_readouts).T


def _forward(circuit: Circuit, thetas: np.ndarray, xs: np.ndarray) -> tuple:
    """The final state of θ draws on `xs`, in a (2, 2**n, rows) pair, and its class probabilities.

    Draw d of the (draws, num_params) `thetas` owns the d-th block of k
    consecutive rows.  The rows are encoded once, and the draws' matrices,
    built as kernels by one :func:`qccnn.sim.unitary` call, act on the
    (draws, 2**n, k) view of the encoding in one batched product, written
    straight into ``pair[0]``; ``pair[1]`` is left for
    :func:`qccnn.autodiff.readout_gradient`'s lambda.  The walk needs the
    whole state, and the readouts, z = 2 P(+1) - 1, read its
    ``circuit.support`` rows.
    """
    encoded = encode(circuit, xs)
    pair = np.empty((2, *encoded.shape), dtype=complex)
    shape = (len(encoded), len(thetas), -1)
    np.matmul(unitary(circuit, thetas), encoded.reshape(shape).transpose(1, 0, 2),
              out=pair[0].reshape(shape).transpose(1, 0, 2))
    return pair, class_probabilities(readouts(circuit, pair[0][circuit.support]))


def _scores(circuit: Circuit, thetas, ys, pair, probs) -> np.ndarray:
    """Score rows from the final state pair and class probabilities of the draws `thetas`.

    Draw d's θ row serves its block of rows; the adjoint walk overwrites `pair`.
    """
    weights = _log_prob_weights(probs, ys, len(circuit.readout))
    return readout_gradient(circuit, thetas, weights, pair)


def score_batch(circuit: Circuit, params, xs, ys):
    """Scores d log p(y|x)/d theta at one theta, one row per sample (x, y).

    `xs` is a (rows, num_inputs) matrix, simulated as one draw of
    :func:`_forward`.  Returns ``(scores, 0)``: the
    benchmark harness (``perfbench/``) unpacks a second element, once the
    count of rows skipped for probability underflow.  No row is skipped:
    with readouts in [-1, 1] the softmax gives every class at least
    1/(1 + 3e^2) > 0.04.
    """
    thetas = np.asarray(params, dtype=float)[None]
    pair, probs = _forward(circuit, thetas, xs)
    ys = np.asarray(ys, dtype=np.int64)
    return _scores(circuit, thetas, ys, pair, probs), 0


def sample_labels(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One class per probability row: the first whose cumulative probability exceeds u.

    The last class takes every u past the other boundaries, also when the
    row's cumulative sum rounds below 1.
    """
    return (u[:, None] >= np.cumsum(probs, axis=1)[:, :-1]).sum(axis=1)


# ---------------------------------------------------------------------------
# effective dimension
# ---------------------------------------------------------------------------


def _kappa(gamma: float, n: int) -> float:
    if not isinstance(n, (int, np.integer)) or n <= 1:
        raise ValueError(f"n must be an integer > 1, got {n!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    kappa = gamma * n / (2.0 * math.pi * math.log(n))
    if kappa <= 1.0:
        raise FloatingPointError(
            f"gamma*n/(2*pi*log n) = {kappa:.4f} <= 1; effective dimension undefined"
        )
    return kappa


def effective_dimension_from_fims(fims, gamma: float, n: int) -> tuple[float, float]:
    """(ed, normalized ed) from a (draws, d, d) stack of FIMs; overwrites a float64 ndarray stack.

    The stack is scaled to mean trace d (zeroed if that is not positive) and
    symmetrized matrix by matrix, in place: a float64 ndarray argument must
    be writable and is left normalized, and anything else (a list of
    matrices) is copied once.  One ``eigvalsh`` call takes every spectrum;
    LAPACK still factors each matrix alone.
    """
    kappa = _kappa(gamma, n)
    fims = np.asarray(fims, dtype=float)
    d = fims.shape[1]
    mean_trace = float(np.trace(fims, axis1=1, axis2=2).mean())
    if mean_trace <= 0.0:
        fims[...] = 0.0
    else:
        fims *= d
        fims /= mean_trace
    for m in fims:  # (m + m.T) / 2; the add buffers the overlapping m.T
        np.add(m, m.T, out=m)
        m /= 2.0
    eigvals = np.linalg.eigvalsh(fims)
    if eigvals.min() < _PSD_TOLERANCE:
        raise FloatingPointError(f"FIM eigenvalue {eigvals.min():.3e} below PSD tolerance")
    np.clip(eigvals, 0.0, None, out=eigvals)
    eigvals *= kappa
    half_logdets = 0.5 * np.log1p(eigvals, out=eigvals).sum(axis=1)
    peak = float(half_logdets.max())
    log_mean_sqrt_det = peak + math.log(np.mean(np.exp(half_logdets - peak)))
    ed = 2.0 * log_mean_sqrt_det / math.log(kappa)
    return float(ed), float(ed / d)


def uniform_input_sampler(rng, k: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (k, 4))


def dataset_input_sampler(dataset: Dataset, stride: int = 2):
    """Sampler drawing 2x2 patches from a dataset's images."""
    pool = extract_patches(dataset.images, stride)

    def sample(rng, k: int) -> np.ndarray:
        return pool[rng.integers(0, len(pool), k)]

    return sample


def _fill_fims(circuit: Circuit, rng, input_sampler, k: int, out: np.ndarray):
    """Write the FIMs of len(`out`) new draws to `out`; each draws θ, k inputs, k uniforms."""
    draws, d = len(out), circuit.num_params
    thetas, u = np.empty((draws, d)), np.empty((draws, k))
    xs = np.empty((draws, k, circuit.num_inputs))
    for i in range(draws):
        thetas[i] = rng.uniform(-math.pi, math.pi, d)
        xs[i], u[i] = input_sampler(rng, k), rng.random(k)
    pair, probs = _forward(circuit, thetas, xs.reshape(draws * k, -1))
    scores = _scores(circuit, thetas, sample_labels(probs, u.ravel()), pair, probs)
    for fim, b in zip(out, scores.reshape(draws, k, d)):
        fim[...] = b.T @ b / k


def held_bytes(circuit: Circuit, theta_samples: int, data_samples: int) -> tuple[int, int]:
    """Bytes :func:`effective_dimension` holds: (its FIM stack and their spectra, one batch).

    A batch of G draws and R rows peaks under three copies of its G
    unitaries, or under five (2**n, R) states plus the (R, d) scores and 16
    floats a row.  n is ``circuit.width``, the qubits the circuit runs on:
    4 for every ansatz, as the ancilla's fifth is folded into its readout.
    Measured with tracemalloc over the 10 keys: 1.7-2.7 copies at 2,048
    draws of one input; 3.5-4.3 states at one draw of 2,048 or 100,000
    inputs, of which the walk's (2, 2**n, R) pair is two.
    """
    d, dim = circuit.num_params, 1 << circuit.width
    draws = min(theta_samples, max(1, _BATCH_ROWS // data_samples))
    rows = draws * data_samples
    batch = 3 * draws * dim * dim * 16 + rows * (5 * dim * 16 + d * 8 + 16 * 8)
    return theta_samples * d * (d + 1) * 8, batch


def effective_dimension(
    key: str,
    gamma: float = 1.0,
    n: int = 546,
    theta_samples: int = 100,
    data_samples: int = 100,
    seed: int = 0,
    input_sampler=uniform_input_sampler,
) -> tuple[float, float]:
    """Monte-Carlo (ed, normalized ed) of the ansatz circuit named `key`.

    Parameters are drawn uniformly from [-pi, pi]^d; for each draw,
    `data_samples` inputs come from `input_sampler` and labels from the
    model's own conditional distribution.  Each draw's empirical FIM is
    (1/k) sum_j score_j score_j^T over its k samples.  Deterministic for a
    fixed seed.

    Batches of at most ``_BATCH_ROWS`` = 2048 rows and at least one draw
    draw their values when they run and take one :func:`_forward` and one
    adjoint walk each; their FIMs fill one (theta_samples, d, d) stack.  BLAS
    rounds a row by where it falls in a call, so batching can move the
    result in its last digits (README, "Simulator"); at 100 inputs it did not.
    """
    circuit = build_ansatz(key).circuit
    _kappa(gamma, n)  # validate settings before any compute
    d, k = circuit.num_params, data_samples
    rng = np.random.default_rng(seed)
    per_batch = max(1, _BATCH_ROWS // k)
    fims = np.empty((theta_samples, d, d))
    for start in range(0, theta_samples, per_batch):
        _fill_fims(circuit, rng, input_sampler, k, fims[start : start + per_batch])
    return effective_dimension_from_fims(fims, gamma, n)
