"""Hybrid model: 2x2 convolution front end (quantum or classical), dense head.

The quantum front end slides four parallel kernels over the image, one
circuit evaluation per 2x2 patch per kernel: the patch encoding is
computed once per batch, and each kernel then acts on it as one
2**n x 2**n matrix (a circuit holds the encoding's program and the body
from when it is built: ``Circuit.prefix`` and ``Circuit.body``).  The
kernels' matrices are built together, and their backward is one walk,
each on kernels x 2**n columns.  The conv-without-pooling variant uses a
single kernel whose four readouts form the four feature maps, so every
configuration feeds the dense head 4 x H' x W' features.  Training uses
softmax cross-entropy and Adam.

Both fronts share one interface: ``parameters()`` returns the live arrays by
checkpoint group (``kernels``, or ``filters`` and ``conv_bias``), which
training updates in place; ``backward(upstream)`` returns the gradients of
the last forward under the same names; ``meta`` holds the checkpoint's
``front`` (ansatz key or ``classical``) and ``relu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import summed_readout_gradient
from .circuits import Ansatz, apply_postprocess, build_ansatz, postprocess_derivative
from .data import PATCH_SIZE, Dataset, extract_patches, patch_grid
from .sim import (
    encode,
    readouts,
    # Unused here: perfbench wraps qccnn.nn:run_deferred_batch and a test
    # asserts that every wrap target resolves.  The layer encodes once per batch.
    run_deferred_batch,  # noqa: F401
    unitary,
)

NUM_FEATURE_MAPS = 4
NUM_CLASSES = 2  # the dense head's logits


class QuantumConvLayer:
    """Quantum convolution (optionally pooling) with 2x2 patch circuits.

    The kernels share one circuit, held as built, and differ only in
    parameters, and no input angle follows the encoding prefix (``Circuit``
    rejects one when it is built), so each kernel acts on the encoded
    patches as one 2**n x 2**n matrix.  A forward encodes the patch batch
    once and applies each matrix to the encoding in one matrix product.
    The matrices are built in one pass of the gates over kernels x 2**n
    columns (:func:`unitary`), and only when the parameters changed since
    the last build.  It caches the encoded state and the matrices, not
    the final states; the backward recomputes each final state from them
    and makes one walk back over the kernels' row-summed matrices,
    kernels x 2**n columns in all (:func:`summed_readout_gradient`), not
    over every row.
    """

    def __init__(self, ansatz: Ansatz, stride: int = 2, *, rng):
        self.ansatz = ansatz
        self.stride = stride
        self.circuit = ansatz.circuit
        # One kernel when the circuit itself emits all four maps.
        self.num_kernels = 1 if ansatz.num_readouts == NUM_FEATURE_MAPS else NUM_FEATURE_MAPS
        self.params = rng.uniform(-math.pi, math.pi, (self.num_kernels, ansatz.num_params))
        self.meta = {"front": ansatz.key, "relu": False}
        self._cache = None
        self._matrices = None  # (params.tobytes(), their unitary) of the last build

    def parameters(self) -> dict[str, np.ndarray]:
        return {"kernels": self.params}

    def forward(self, images: np.ndarray) -> np.ndarray:
        self._cache = None  # free the last encoded state before encoding this batch
        patches, maps_shape = _patch_features(images, self.stride)
        encoded = encode(self.circuit, patches.reshape(-1, PATCH_SIZE**2))
        # Keyed by value: training updates the parameter array in place.
        key = self.params.tobytes()
        if self._matrices is None or self._matrices[0] != key:
            self._matrices = (key, unitary(self.circuit, self.params))
        unitaries = self._matrices[1]
        # One buffer for every kernel: a fresh product each would map and
        # unmap state-sized blocks.
        state = np.empty_like(encoded)
        raw = np.empty((self.num_kernels, encoded.shape[1], self.ansatz.num_readouts))
        for k, u in enumerate(unitaries):
            raw[k] = readouts(self.circuit, np.matmul(u, encoded, out=state))
        self._cache = (maps_shape, unitaries, raw, encoded)
        values = apply_postprocess(self.ansatz.postprocess, raw)
        # (kernels, rows, readouts) -> (batch, rows, kernels*readouts) features
        features = values.transpose(1, 0, 2).reshape(patches.shape)
        return features.transpose(0, 2, 1).reshape(maps_shape)

    def backward(self, upstream: np.ndarray) -> dict[str, np.ndarray]:
        """Kernel parameter gradients given dLoss/d(feature maps).

        Sign has zero derivative almost everywhere, so its kernels receive
        zero gradients; other postprocesses chain through their derivative.
        """
        d_features = _feature_rows(upstream, self._cache)
        _, unitaries, raw, encoded = self._cache
        post = self.ansatz.postprocess
        if post == "sign":
            return {"kernels": np.zeros(self.params.shape)}
        # (batch, rows, kernels*readouts) -> (kernels, rows, readouts), like raw
        d_raw = d_features.reshape(raw.shape[1], self.num_kernels, -1).transpose(1, 0, 2)
        weights = d_raw * postprocess_derivative(post, raw)
        grad = summed_readout_gradient(self.circuit, self.params, weights, unitaries, encoded)
        return {"kernels": grad}


class ClassicalConvLayer:
    """Plain valid cross-correlation with four 2x2 filters."""

    def __init__(self, stride: int = 2, *, rng, relu: bool = False):
        bound = math.sqrt(6.0 / (PATCH_SIZE**2 + 1))
        self.filters = rng.uniform(-bound, bound, (NUM_FEATURE_MAPS, PATCH_SIZE, PATCH_SIZE))
        self.bias = np.zeros(NUM_FEATURE_MAPS)
        self.stride = stride
        self.relu = relu
        self.meta = {"front": "classical", "relu": bool(relu)}
        self._cache = None

    def parameters(self) -> dict[str, np.ndarray]:
        return {"filters": self.filters, "conv_bias": self.bias}

    def forward(self, images: np.ndarray) -> np.ndarray:
        patches, maps_shape = _patch_features(images, self.stride)
        pre = patches @ self.filters.reshape(NUM_FEATURE_MAPS, -1).T + self.bias
        out = np.maximum(pre, 0.0) if self.relu else pre
        self._cache = (maps_shape, patches, pre)
        return out.transpose(0, 2, 1).reshape(maps_shape)

    def backward(self, upstream: np.ndarray) -> dict[str, np.ndarray]:
        # d_out stays a strided view: a contiguous copy would change how
        # einsum and sum group their additions.
        d_out = _feature_rows(upstream, self._cache)
        _, patches, pre = self._cache
        if self.relu:
            d_out = d_out * (pre > 0)
        d_filters = np.einsum("brf,brp->fp", d_out, patches)
        return {"filters": d_filters.reshape(self.filters.shape),
                "conv_bias": d_out.sum(axis=(0, 1))}


def _patch_features(images: np.ndarray, stride: int):
    """Each image's 2x2 patches as (batch, rows, 4) features, and the shape
    (batch, 4, h_out, w_out) that ``features.transpose(0, 2, 1)`` takes as maps."""
    batch, h, w = images.shape
    h_out, w_out = patch_grid(h, w, stride)
    patches = extract_patches(images, stride)
    patches = patches.reshape(batch, h_out * w_out, PATCH_SIZE**2)
    return patches, (batch, NUM_FEATURE_MAPS, h_out, w_out)


def _feature_rows(upstream: np.ndarray, cache) -> np.ndarray:
    """dLoss/d(maps), as maps or flat per image, as a (batch, rows, 4) view;
    `cache` is the front's forward cache (None, or led by the maps shape)."""
    if cache is None:
        raise RuntimeError("backward called before forward")
    maps_shape = cache[0]
    if upstream.shape[:1] != maps_shape[:1] or upstream.size != math.prod(maps_shape):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match forward maps shape {maps_shape}"
        )
    return upstream.reshape(maps_shape[0], NUM_FEATURE_MAPS, -1).transpose(0, 2, 1)


class DenseLayer:
    """Fully connected classification head with NUM_CLASSES logits."""

    def __init__(self, in_features: int, rng):
        bound = math.sqrt(6.0 / (in_features + NUM_CLASSES))
        self.weights = rng.uniform(-bound, bound, (NUM_CLASSES, in_features))
        self.bias = np.zeros(NUM_CLASSES)
        self._features = None

    def forward(self, features: np.ndarray) -> np.ndarray:
        self._features = features
        return features @ self.weights.T + self.bias

    def backward(self, d_logits: np.ndarray):
        d_weights = d_logits.T @ self._features
        d_bias = d_logits.sum(axis=0)
        d_features = d_logits @ self.weights
        return d_weights, d_bias, d_features


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Per-sample loss and logits gradient of (batch, classes) logits and (batch,) labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(len(labels))
    losses = -(shifted[rows, labels] - np.log(exp.sum(axis=1)))
    grads = probs.copy()
    grads[rows, labels] -= 1.0
    return losses, grads


class HybridModel:
    """Convolution front end + dense head over flattened feature maps.

    The front is any object with ``stride``, ``forward`` and the interface in
    the module docstring.  Gradients and parameters list ``head_weights`` and
    ``head_bias``, then the front's groups; the checkpoint spreads its ``meta``.
    """

    def __init__(self, front, image_shape: tuple[int, int], rng):
        self.front = front
        h_out, w_out = patch_grid(image_shape[0], image_shape[1], front.stride)
        self.head = DenseLayer(NUM_FEATURE_MAPS * h_out * w_out, rng=rng)
        self.image_shape = tuple(image_shape)

    def forward(self, images: np.ndarray) -> np.ndarray:
        maps = self.front.forward(np.asarray(images, dtype=float))
        return self.head.forward(maps.reshape(maps.shape[0], -1))

    def loss_and_grads(self, images: np.ndarray, labels: np.ndarray):
        """Mean loss, accuracy, and gradients for one batch."""
        logits = self.forward(images)
        losses, d_logits = softmax_cross_entropy(logits, labels)
        accuracy = float((logits.argmax(axis=1) == labels).mean())
        d_logits /= len(losses)
        d_weights, d_bias, d_features = self.head.backward(d_logits)
        grads = {"head_weights": d_weights, "head_bias": d_bias, **self.front.backward(d_features)}
        return float(losses.mean()), accuracy, grads

    def parameters(self) -> dict[str, np.ndarray]:
        return {"head_weights": self.head.weights, "head_bias": self.head.bias,
                **self.front.parameters()}

    def state_dict(self) -> dict:
        return {
            "format": "qccnn-checkpoint",
            "version": 1,
            **self.front.meta,
            "stride": self.front.stride,
            "image_shape": list(self.image_shape),
            "params": {name: arr.tolist() for name, arr in self.parameters().items()},
        }

    def load_state_dict(self, state: dict):
        # The integer 1: true and 1.0 compare equal to it too.
        version = state.get("version")
        if state.get("format") != "qccnn-checkpoint" or type(version) is not int or version != 1:
            raise ValueError("not a version-1 checkpoint record")
        for name, arr in self.parameters().items():
            loaded = np.asarray(state["params"][name], dtype=float)
            if loaded.shape != arr.shape:
                raise ValueError(f"checkpoint shape mismatch for {name!r}")
            if not np.isfinite(loaded).all():
                raise ValueError(f"checkpoint holds non-finite values for {name!r}")
            arr[...] = loaded


def make_model(front_key: str, image_shape: tuple[int, int], stride: int = 2,
               seed: int = 0, relu: bool = False) -> HybridModel:
    """Build a seeded model; `front_key` is an ansatz key or ``classical``."""
    rng = np.random.default_rng(seed)
    if front_key == "classical":
        front = ClassicalConvLayer(stride=stride, rng=rng, relu=relu)
    else:
        front = QuantumConvLayer(build_ansatz(front_key), stride=stride, rng=rng)
    return HybridModel(front, image_shape, rng=rng)


def batch_bytes(front_key: str, image_shape: tuple[int, int], stride: int, images: int) -> int:
    """Bytes one training step on a batch of `images` images holds at its peak.

    The batch's rows, its images times their `patch_grid` windows, each
    hold the per-row arrays of the encoding, the forward and the backward:
    five (2**n, rows) complex states for a quantum front, n its circuit's
    width (4 for every ansatz), or 32 floats for the classical front.
    Measured with tracemalloc over one batch per front, 8 or 64 images of
    8x8 to 96x96 at stride 1 and 2: 4.6-4.8 states a row for a training
    step and 3.6-4.1 for a forward pass alone, and 12-30 floats for the
    classical front.
    """
    rows = images * math.prod(patch_grid(*image_shape, stride))
    if front_key == "classical":
        return rows * 32 * 8
    return rows * 5 * (1 << build_ansatz(front_key).circuit.width) * 16


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators per parameter group."""

    lr: float = 0.001
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> AdamState:
    """Standard Adam update with bias correction, in place on `params`."""
    state.step += 1
    t = state.step
    for name, grad in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * grad
        v = state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * grad**2
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        params[name] -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Per-epoch metric traces of one training run."""

    train_acc: list
    train_loss: list
    val_acc: list
    val_loss: list

    @property
    def epochs_run(self) -> int:
        return len(self.train_acc)

    @property
    def max_train_acc(self) -> float:
        return max(self.train_acc)

    @property
    def max_val_acc(self) -> float:
        return max(self.val_acc)


# Images per forward pass in evaluate; the results do not depend on it.
EVAL_BATCH_SIZE = 64


def evaluate(model: HybridModel, dataset: Dataset):
    """Mean accuracy and loss over a dataset, EVAL_BATCH_SIZE images a forward pass."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    total_loss = 0.0
    correct = 0
    for start in range(0, len(dataset), EVAL_BATCH_SIZE):
        images = dataset.images[start : start + EVAL_BATCH_SIZE]
        labels = dataset.labels[start : start + EVAL_BATCH_SIZE]
        logits = model.forward(images)
        losses, _ = softmax_cross_entropy(logits, labels)
        total_loss += float(losses.sum())
        correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / len(dataset), total_loss / len(dataset)


def fit(
    model: HybridModel,
    train: Dataset,
    val: Dataset,
    epochs: int = 20,
    batch_size: int = 8,
    lr: float = 0.001,
    seed: int = 0,
    stop_at_train_acc: float | None = None,
) -> FitResult:
    """Train with Adam; deterministic for a fixed (model seed, fit seed).

    Records the epoch mean of batch train metrics and a full validation pass
    per epoch.  When `stop_at_train_acc` is set, training halts at the end
    of the first epoch whose train accuracy reaches it.  Raises
    FloatingPointError at the end of the first epoch with a non-finite loss
    or parameter group.
    """
    if len(train) == 0 or len(val) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    state = AdamState(lr=lr)
    params = model.parameters()
    result = FitResult([], [], [], [])
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        loss_sum = 0.0
        acc_sum = 0.0
        for start in range(0, len(order), batch_size):
            batch_idx = order[start : start + batch_size]
            loss, acc, grads = model.loss_and_grads(
                train.images[batch_idx], train.labels[batch_idx]
            )
            adam_step(params, grads, state)
            loss_sum += loss * len(batch_idx)
            acc_sum += acc * len(batch_idx)
        result.train_loss.append(loss_sum / len(order))
        result.train_acc.append(acc_sum / len(order))
        val_acc, val_loss = evaluate(model, val)
        result.val_acc.append(val_acc)
        result.val_loss.append(val_loss)
        checks = {"train_loss": result.train_loss[-1], "val_loss": val_loss, **params}
        bad = [name for name, value in checks.items() if not np.isfinite(value).all()]
        if bad:
            raise FloatingPointError(f"non-finite {', '.join(bad)} at epoch {epoch}")
        if stop_at_train_acc is not None and result.train_acc[-1] >= stop_at_train_acc:
            break
    return result
