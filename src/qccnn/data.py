"""Dataset ingestion, normalization, patch extraction and synthetic data.

Supported sources:

* ZIP archive of binary array records (``.npz``): keys ``train_images``,
  ``train_labels``, ``val_images``, ``val_labels``; images are uint8
  ``(N, H, W)``, labels uint8 binary.
* ``synthetic`` two-blob images, generated from a seed.

Pixels p in [0, 255] map to 2*(p/255) - 1 in [-1, 1]; the mapping round
trips exactly on integers.
"""

from __future__ import annotations

import contextlib
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npy


class DataError(Exception):
    """Raised when a dataset file is missing, malformed or inconsistent."""


@dataclass
class Dataset:
    """Normalized images in [-1, 1] with binary labels."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise DataError(f"images must be (N, H, W), got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.images.shape[1], self.images.shape[2]


# Largest synthetic or archive images (as float64) and largest ED, in bytes;
# the 28x28 stand-in for the real dataset (546 + 78 images) takes 3.9 MB.
_SYNTHETIC_MAX_BYTES = 1 << 30

# Half-width of the uniform pixel noise added to every synthetic image.
_SYNTHETIC_NOISE = 0.1

# The side of the square window every front reads: 2x2 patches, 4 inputs each.
PATCH_SIZE = 2


def _check_limit(what: str, nbytes: int, error: type[Exception] = DataError):
    """Raise `error` before `what` is allocated if its `nbytes` pass the limit."""
    if nbytes > _SYNTHETIC_MAX_BYTES:
        raise error(f"{what} would take {nbytes / 2**30:.1f} GiB,"
                    f" more than the {_SYNTHETIC_MAX_BYTES / 2**30:.0f} GiB limit")


@dataclass
class SyntheticSpec:
    """Recipe for the desk-scale two-blob dataset."""

    seed: int = 0
    train_n: int = 200
    val_n: int = 50
    size: int = 8


def normalize_pixels(pixels) -> np.ndarray:
    """uint8 pixel values to floats in [-1, 1]."""
    return 2.0 * (np.asarray(pixels, dtype=float) / 255.0) - 1.0


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

_ARCHIVE_KEYS = ("train_images", "train_labels", "val_images", "val_labels")


def _open_record(stack: contextlib.ExitStack, zf: zipfile.ZipFile, names: set[str], key: str):
    """Record `key`'s stream, left at its data, and its header's (shape, fortran_order, dtype)."""
    member = key + ".npy" if key + ".npy" in names else key
    if member not in names:
        raise DataError(f"archive is missing record {key!r}")
    f = stack.enter_context(zf.open(member))
    try:
        version = npy.read_magic(f)
    except ValueError as exc:
        raise DataError(f"record {key!r}: bad magic bytes, not an array record") from exc
    if version not in ((1, 0), (2, 0), (3, 0)):
        raise DataError(f"record {key!r}: unsupported array record version {version}")
    # Version 3.0 differs from 2.0 only by a UTF-8 header, which only the
    # non-ASCII field names of structured dtypes need; those are refused.
    read = npy.read_array_header_1_0 if version == (1, 0) else npy.read_array_header_2_0
    try:
        return f, read(f)
    except Exception as exc:
        raise DataError(f"record {key!r}: {exc}") from exc


def _check_headers(path: Path, headers: dict):
    """Refuse what the headers show to be malformed or past the limit, before any data is read."""
    for key, (shape, _, _) in headers.items():
        if min(shape, default=0) < 0:
            raise DataError(f"record {key!r}: negative dimension in shape {shape}")
    shapes = {}
    for split in ("train", "val"):
        shape, _, dtype = headers[f"{split}_images"]
        shape = shapes[split] = shape[:3] if len(shape) == 4 and shape[3] == 1 else shape
        if len(shape) != 3:
            raise DataError(
                f"record '{split}_images': expected grayscale (N, H, W) images, got shape {shape}"
            )
        if dtype != np.uint8:
            raise DataError(f"record '{split}_images': expected uint8 pixels, got {dtype}")
        if shape[0] == 0:
            raise DataError(f"{path}: {split} split has no images")
        if min(shape[1:]) < PATCH_SIZE:
            raise DataError(f"{path}: {split} images are {shape[1]}x{shape[2]}, smaller than 2x2")
        labels, _, dtype = headers[f"{split}_labels"]
        count = math.prod(labels)
        if not np.issubdtype(dtype, np.integer):
            raise DataError(f"record '{split}_labels': labels must be integers, got {dtype}")
        if count != shape[0]:
            raise DataError(f"record '{split}_labels': {count} labels for {shape[0]} images")
    train, val = shapes["train"][1:], shapes["val"][1:]
    if train != val:
        raise DataError(f"{path}: train images are {train}, val images are {val}")
    _check_limit("archive images", 8 * (math.prod(shapes["train"]) + math.prod(shapes["val"])))


def load_array_archive(path) -> tuple[Dataset, Dataset]:
    """Load train/val splits from a ZIP-of-array-records archive; headers are checked first."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such archive: {path}")
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise DataError(f"{path} is not a ZIP archive: {exc}") from exc
    with zf, contextlib.ExitStack() as stack:
        names = set(zf.namelist())
        opened = {key: _open_record(stack, zf, names, key) for key in _ARCHIVE_KEYS}
        _check_headers(path, {key: header for key, (_, header) in opened.items()})
        records = {}
        for key, (f, (shape, fortran_order, dtype)) in opened.items():
            count = math.prod(shape)
            try:
                array = np.frombuffer(f.read(count * dtype.itemsize), dtype, count)
            except ValueError as exc:  # fewer bytes than the header declared
                raise DataError(f"record {key!r}: {exc}") from exc
            records[key] = array.reshape(shape, order="F" if fortran_order else "C")
    datasets = []
    for split in ("train", "val"):
        images, labels = records[f"{split}_images"], records[f"{split}_labels"].reshape(-1)
        if not np.isin(labels, (0, 1)).all():
            raise DataError(f"record '{split}_labels': non-binary labels present")
        datasets.append(Dataset(normalize_pixels(images.reshape(images.shape[:3])), labels))
    return datasets[0], datasets[1]


def load_dataset(source) -> tuple[Dataset, Dataset]:
    """Resolve a data source string to (train, val) datasets.

    Accepts ``synthetic`` (optionally ``synthetic:seed=N,...``) or a
    ``.npz``/``.zip`` archive path; anything else, a directory included, is
    an unrecognized source.  Both splits hold at least one image of at
    least 2x2 pixels, the patch window, and their images share one shape:
    a synthetic spec guarantees it, and an archive's headers are checked.
    """
    source = str(source)
    if source == "synthetic" or source.startswith("synthetic:"):
        return generate_synthetic(_synthetic_spec(source))
    if Path(source).suffix in (".npz", ".zip"):
        return load_array_archive(source)
    raise DataError(f"unrecognized data source {source!r}")


def _synthetic_spec(source: str) -> SyntheticSpec:
    spec = SyntheticSpec()
    if ":" in source:
        for item in source.split(":", 1)[1].split(","):
            key, _, value = item.partition("=")
            if key not in ("seed", "train_n", "val_n", "size"):
                raise DataError(f"unknown synthetic option {key!r}")
            try:
                setattr(spec, key, int(value))
            except ValueError:
                raise DataError(
                    f"synthetic option {key!r} must be an integer, got {value!r}"
                ) from None
    for key, least in (("seed", 0), ("train_n", 1), ("val_n", 1), ("size", PATCH_SIZE)):
        if getattr(spec, key) < least:
            raise DataError(f"synthetic option {key!r} must be >= {least}, got {getattr(spec, key)}")
    _check_limit("synthetic images", (spec.train_n + spec.val_n) * spec.size**2 * 8)  # float64
    return spec


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Two-class blob images: class 0 lights up the top-left corner, class 1
    the bottom-right.  Deterministic for a fixed spec."""
    rng = np.random.default_rng(spec.seed)
    size = spec.size
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    centers = {0: (size // 4, size // 4), 1: (3 * size // 4, 3 * size // 4)}

    def make(n: int) -> Dataset:
        labels = (np.arange(n) % 2).astype(np.int64)
        images = np.empty((n, size, size))
        for i, label in enumerate(labels):
            cr, ccol = centers[int(label)]
            blob = np.exp(-((rr - cr) ** 2 + (cc - ccol) ** 2) / (2.0 * 1.2**2))
            noise = rng.uniform(-_SYNTHETIC_NOISE, _SYNTHETIC_NOISE, (size, size))
            images[i] = np.clip(-0.85 + 1.7 * blob + noise, -1.0, 1.0)
        return Dataset(images, labels)

    return make(spec.train_n), make(spec.val_n)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def patch_grid(height: int, width: int, stride: int = 2) -> tuple[int, int]:
    """Feature-map shape for valid PATCH_SIZE x PATCH_SIZE windows at `stride`."""
    if min(height, width) < PATCH_SIZE:
        raise ValueError(f"image {height}x{width} smaller than {PATCH_SIZE}x{PATCH_SIZE} window")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return (height - PATCH_SIZE) // stride + 1, (width - PATCH_SIZE) // stride + 1


def extract_patches(images, stride: int = 2) -> np.ndarray:
    """Every valid patch window of an (N, H, W) batch, copied from one strided view.

    Windows run image by image, each in row-major order, and each is
    flattened row-major.  Returns an array of shape (N * n_patches,
    PATCH_SIZE**2).
    """
    images = np.asarray(images, dtype=float)
    if images.ndim != 3:
        raise ValueError(f"expected an (N, H, W) batch, got shape {images.shape}")
    patch_grid(images.shape[1], images.shape[2], stride)
    windows = np.lib.stride_tricks.sliding_window_view(images, (PATCH_SIZE,) * 2, axis=(-2, -1))
    windows = windows[..., ::stride, ::stride, :, :]
    return np.array(windows).reshape(-1, PATCH_SIZE**2)
