"""Empirical Fisher information and effective dimension of ansatz circuits.

The circuit defines a conditional class distribution p(y|x; theta) through a
probability map on its readouts: single-readout circuits use the two-class
softmax over (z, -z) by default (a ``linear`` map p(y=1) = (1+z)/2 is also
available); the four-readout convolution circuit uses a softmax over its
four outputs.  The Fisher information matrix is estimated empirically from
the score outer products of samples (x_j, y_j) with y_j drawn from the model
itself, and the effective dimension aggregates normalized-FIM determinants
over uniformly drawn parameter vectors:

    ed = 2 * log( mean_s sqrt(det(I + kappa * Fhat_s)) ) / log(kappa),
    kappa = gamma * n / (2 * pi * log n),

with Fhat_s = d * F_s / mean_s tr(F_s).  The reported value is divided by
the parameter count d for comparison across circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import readout_gradient
from .circuits import Ansatz, build_ansatz
from .data import Dataset, extract_patches
from .sim import Circuit, defer_measurements, run_deferred_batch

PROB_MAPS = ("softmax", "linear")

_MIN_PROB = 1e-12
_PSD_TOLERANCE = -1e-10


class NumericError(RuntimeError):
    """Raised when a numerical invariant (PSD spectrum, valid kappa) fails."""


@dataclass
class FIMEstimate:
    """Empirical Fisher information matrix at one parameter draw."""

    matrix: np.ndarray
    k: int
    theta: np.ndarray
    skipped: int = 0


@dataclass
class EDReport:
    """Effective dimension of one ansatz at one seed, with its settings."""

    ansatz_key: str
    ed: float
    normalized_ed: float
    gamma: float
    n: int
    d: int
    theta_samples: int
    data_samples: int
    seed: int
    log_param_volume: float
    skipped: int = 0

    def lines(self) -> list[str]:
        """Structured text record, one ``key: value`` line per field."""
        return [
            f"ansatz: {self.ansatz_key}",
            f"seed: {self.seed}",
            f"d: {self.d}",
            f"gamma: {self.gamma}",
            f"n: {self.n}",
            f"theta_samples: {self.theta_samples}",
            f"data_samples: {self.data_samples}",
            f"log_param_volume: {self.log_param_volume!r}",
            f"skipped: {self.skipped}",
            f"ed: {self.ed!r}",
            f"normalized_ed: {self.normalized_ed!r}",
        ]


# ---------------------------------------------------------------------------
# probability maps and scores
# ---------------------------------------------------------------------------


def _softmax(outputs: np.ndarray) -> np.ndarray:
    shifted = outputs - outputs.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def class_probabilities(readouts: np.ndarray, prob_map: str = "softmax") -> np.ndarray:
    """Class distribution rows from circuit readout rows.

    One readout z: two classes, softmax over (z, -z) or the linear map
    ((1-z)/2, (1+z)/2).  Four readouts: softmax over all four.
    """
    readouts = np.atleast_2d(np.asarray(readouts, dtype=float))
    if prob_map not in PROB_MAPS:
        raise ValueError(f"unknown probability map {prob_map!r}")
    if readouts.shape[1] == 1:
        z = readouts[:, 0]
        if prob_map == "linear":
            return np.stack([(1.0 - z) / 2.0, (1.0 + z) / 2.0], axis=1)
        return _softmax(np.stack([z, -z], axis=1))
    if prob_map == "linear":
        raise ValueError("linear probability map is defined for single-readout circuits")
    return _softmax(readouts)


def _log_prob_weights(probs, ys, prob_map, num_readouts):
    """d log p(y)/d<Z_j> for each row: shape (rows, num_readouts).

    probs: (rows, classes); ys: (rows,).
    """
    rows = np.arange(len(ys))
    if prob_map == "linear":
        # p(y) = (1 + (-1)^(1-y) z)/2 -> dlogp = sign/(2 p_y) * dz
        sign = np.where(ys == 1, 1.0, -1.0)
        return (sign / (2.0 * probs[rows, ys]))[:, None]
    onehot = np.zeros_like(probs)
    onehot[rows, ys] = 1.0
    residual = onehot - probs  # d log p_y / d outputs for a softmax
    if num_readouts == 1:
        # outputs were (z, -z)
        return (residual[:, 0] - residual[:, 1])[:, None]
    return residual


def _circuit_of(ansatz) -> Circuit:
    return ansatz.circuit if isinstance(ansatz, Ansatz) else ansatz


def score_batch(circuit: Circuit, params, xs, ys, prob_map: str = "softmax"):
    """Scores for many samples at one theta; rows with p(y|x) underflow are
    dropped.  Returns (scores, n_skipped)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=np.int64)
    n = len(ys)
    has_inputs = xs.size > 0
    z = run_deferred_batch(circuit, params, xs if has_inputs else None)
    if z.shape[0] == 1 and n > 1:  # input-free circuit: identical rows
        z = np.repeat(z, n, axis=0)
    probs = class_probabilities(z, prob_map)
    keep = probs[np.arange(n), ys] >= _MIN_PROB
    skipped = int((~keep).sum())
    weights = _log_prob_weights(probs[keep], ys[keep], prob_map, z.shape[1])
    scores = readout_gradient(circuit, params, xs[keep] if has_inputs else None, weights)
    return scores, skipped


def empirical_fim(ansatz, params, xs, ys, prob_map: str = "softmax") -> FIMEstimate:
    """(1/k) sum_j score_j score_j^T over the given samples."""
    circuit = _circuit_of(ansatz)
    scores, skipped = score_batch(circuit, params, xs, ys, prob_map)
    k = scores.shape[0]
    if k == 0:
        raise NumericError("every sample was skipped; cannot estimate the FIM")
    matrix = scores.T @ scores / k
    return FIMEstimate(matrix, k, np.asarray(params, dtype=float).copy(), skipped)


def sample_labels(probs: np.ndarray, rng) -> np.ndarray:
    """Draw one class per probability row."""
    u = rng.random(probs.shape[0])
    return (u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1)


# ---------------------------------------------------------------------------
# effective dimension
# ---------------------------------------------------------------------------


def normalized_fim(fims: list) -> list:
    """Scale FIM samples so the average trace equals the parameter count."""
    matrices = [f.matrix if isinstance(f, FIMEstimate) else np.asarray(f) for f in fims]
    d = matrices[0].shape[0]
    mean_trace = float(np.mean([np.trace(m) for m in matrices]))
    if mean_trace <= 0.0:
        return [np.zeros_like(m) for m in matrices]
    return [d * m / mean_trace for m in matrices]


def _kappa(gamma: float, n: int) -> float:
    if not isinstance(n, (int, np.integer)) or n <= 1:
        raise ValueError(f"n must be an integer > 1, got {n!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    kappa = gamma * n / (2.0 * math.pi * math.log(n))
    if kappa <= 1.0:
        raise NumericError(
            f"gamma*n/(2*pi*log n) = {kappa:.4f} <= 1; effective dimension undefined"
        )
    return kappa


def effective_dimension_from_fims(fims: list, gamma: float, n: int) -> tuple[float, float]:
    """(ed, normalized ed) from precomputed FIM samples at one setting."""
    kappa = _kappa(gamma, n)
    normalized = normalized_fim(fims)
    d = normalized[0].shape[0]
    half_logdets = []
    for matrix in normalized:
        eigvals = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
        if eigvals.min() < _PSD_TOLERANCE:
            raise NumericError(f"FIM eigenvalue {eigvals.min():.3e} below PSD tolerance")
        eigvals = np.clip(eigvals, 0.0, None)
        half_logdets.append(0.5 * np.log1p(kappa * eigvals).sum())
    half_logdets = np.asarray(half_logdets)
    peak = float(half_logdets.max())
    log_mean_sqrt_det = peak + math.log(np.mean(np.exp(half_logdets - peak)))
    ed = 2.0 * log_mean_sqrt_det / math.log(kappa)
    return float(ed), float(ed / d)


def uniform_input_sampler(rng, k: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (k, 4))


def dataset_input_sampler(dataset: Dataset, stride: int = 2):
    """Sampler drawing 2x2 patches from a dataset's images."""
    pool = np.concatenate([extract_patches(img, 2, stride) for img in dataset.images])

    def sample(rng, k: int) -> np.ndarray:
        return pool[rng.integers(0, len(pool), k)]

    return sample


def effective_dimension(
    ansatz,
    gamma: float = 1.0,
    n: int = 546,
    theta_samples: int = 100,
    data_samples: int = 100,
    seed: int = 0,
    input_sampler=uniform_input_sampler,
    prob_map: str = "softmax",
) -> EDReport:
    """Monte-Carlo effective dimension of one ansatz circuit.

    Parameters are drawn uniformly from [-pi, pi]^d; for each draw,
    `data_samples` inputs come from `input_sampler` and labels from the
    model's own conditional distribution.  Deterministic for a fixed seed.
    """
    if isinstance(ansatz, str):
        ansatz = build_ansatz(ansatz)
    kappa = _kappa(gamma, n)  # validate settings before any compute
    del kappa
    circuit = defer_measurements(_circuit_of(ansatz))
    d = circuit.num_params
    rng = np.random.default_rng(seed)
    fims = []
    skipped = 0
    for _ in range(theta_samples):
        theta = rng.uniform(-math.pi, math.pi, d)
        xs = input_sampler(rng, data_samples)
        outputs = run_deferred_batch(circuit, theta, xs)
        probs = class_probabilities(outputs, prob_map)
        ys = sample_labels(probs, rng)
        fim = empirical_fim(circuit, theta, xs, ys, prob_map)
        fims.append(fim)
        skipped += fim.skipped
    ed, normalized = effective_dimension_from_fims(fims, gamma, n)
    key = ansatz.key if isinstance(ansatz, Ansatz) else "<circuit>"
    return EDReport(
        ansatz_key=key,
        ed=ed,
        normalized_ed=normalized,
        gamma=gamma,
        n=n,
        d=d,
        theta_samples=theta_samples,
        data_samples=data_samples,
        seed=seed,
        log_param_volume=d * math.log(2.0 * math.pi),
        skipped=skipped,
    )
