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

import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(Exception):
    """Raised when a dataset file is missing, malformed or inconsistent."""


@dataclass
class Dataset:
    """Normalized images in [-1, 1] with binary labels."""

    images: np.ndarray
    labels: np.ndarray
    split: str = "train"

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


# Largest synthetic request, in bytes of images; the 28x28 stand-in for the
# real dataset (546 + 78 images) takes 3.9 MB.
_SYNTHETIC_MAX_BYTES = 1 << 30

# Half-width of the uniform pixel noise added to every synthetic image.
_SYNTHETIC_NOISE = 0.1


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


def _read_archive_member(zf: zipfile.ZipFile, names: set[str], key: str) -> np.ndarray:
    member = key + ".npy" if key + ".npy" in names else key
    if member not in names:
        raise DataError(f"archive is missing record {key!r}")
    with zf.open(member) as f:
        if f.read(6) != b"\x93NUMPY":
            raise DataError(f"record {key!r}: bad magic bytes, not an array record")
        f.seek(0)
        try:
            return np.lib.format.read_array(f, allow_pickle=False)
        except Exception as exc:
            raise DataError(f"record {key!r}: {exc}") from exc


def _validate_images(arr: np.ndarray, key: str) -> np.ndarray:
    if arr.ndim == 4 and arr.shape[3] == 1:
        arr = arr[..., 0]
    if arr.ndim != 3:
        raise DataError(
            f"record {key!r}: expected grayscale (N, H, W) images, got shape {arr.shape}"
        )
    if arr.dtype != np.uint8:
        raise DataError(f"record {key!r}: expected uint8 pixels, got {arr.dtype}")
    return arr


def _validate_labels(arr: np.ndarray, key: str, n_images: int) -> np.ndarray:
    arr = np.asarray(arr).reshape(-1)
    if arr.shape[0] != n_images:
        raise DataError(f"record {key!r}: {arr.shape[0]} labels for {n_images} images")
    if not np.issubdtype(arr.dtype, np.integer):
        raise DataError(f"record {key!r}: labels must be integers, got {arr.dtype}")
    if not np.isin(arr, (0, 1)).all():
        raise DataError(f"record {key!r}: non-binary labels present")
    return arr.astype(np.int64)


def load_array_archive(path) -> tuple[Dataset, Dataset]:
    """Load train/val splits from a ZIP-of-array-records archive."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such archive: {path}")
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise DataError(f"{path} is not a ZIP archive: {exc}") from exc
    with zf:
        names = set(zf.namelist())
        records = {key: _read_archive_member(zf, names, key) for key in _ARCHIVE_KEYS}
    datasets = []
    for split in ("train", "val"):
        images = _validate_images(records[f"{split}_images"], f"{split}_images")
        labels = _validate_labels(records[f"{split}_labels"], f"{split}_labels", len(images))
        datasets.append(Dataset(normalize_pixels(images), labels, split))
    return datasets[0], datasets[1]


def load_dataset(source) -> tuple[Dataset, Dataset]:
    """Resolve a data source string to (train, val) datasets.

    Accepts ``synthetic`` (optionally ``synthetic:seed=N,...``) or a
    ``.npz``/``.zip`` archive path; anything else, a directory included, is
    an unrecognized source.  Both splits must hold at least one image of at
    least 2x2 pixels, the patch window, and their images must share one shape.
    """
    source = str(source)
    if source == "synthetic" or source.startswith("synthetic:"):
        splits = generate_synthetic(_synthetic_spec(source))
    elif Path(source).suffix in (".npz", ".zip"):
        splits = load_array_archive(source)
    else:
        raise DataError(f"unrecognized data source {source!r}")
    for split in splits:
        h, w = split.image_shape
        if len(split) == 0:
            raise DataError(f"{source}: {split.split} split has no images")
        if h < 2 or w < 2:
            raise DataError(f"{source}: {split.split} images are {h}x{w}, smaller than 2x2")
    train, val = splits
    if train.image_shape != val.image_shape:
        raise DataError(
            f"{source}: train images are {train.image_shape}, val images are {val.image_shape}"
        )
    return splits


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
    for key, least in (("seed", 0), ("train_n", 1), ("val_n", 1), ("size", 2)):
        if getattr(spec, key) < least:
            raise DataError(f"synthetic option {key!r} must be >= {least}, got {getattr(spec, key)}")
    image_bytes = (spec.train_n + spec.val_n) * spec.size**2 * 8  # float64 pixels
    if image_bytes > _SYNTHETIC_MAX_BYTES:
        raise DataError(
            f"synthetic images would take {image_bytes / 2**30:.1f} GiB,"
            f" more than the {_SYNTHETIC_MAX_BYTES / 2**30:.0f} GiB limit"
        )
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

    def make(split: str, n: int) -> Dataset:
        labels = (np.arange(n) % 2).astype(np.int64)
        images = np.empty((n, size, size))
        for i, label in enumerate(labels):
            cr, ccol = centers[int(label)]
            blob = np.exp(-((rr - cr) ** 2 + (cc - ccol) ** 2) / (2.0 * 1.2**2))
            noise = rng.uniform(-_SYNTHETIC_NOISE, _SYNTHETIC_NOISE, (size, size))
            images[i] = np.clip(-0.85 + 1.7 * blob + noise, -1.0, 1.0)
        return Dataset(images, labels, split)

    return make("train", spec.train_n), make("val", spec.val_n)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def patch_grid(height: int, width: int, size: int = 2, stride: int = 2) -> tuple[int, int]:
    """Feature-map shape for valid windows of `size` at `stride`."""
    if height < size or width < size:
        raise ValueError(f"image {height}x{width} smaller than {size}x{size} window")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return (height - size) // stride + 1, (width - size) // stride + 1


def extract_patches(images, size: int = 2, stride: int = 2) -> np.ndarray:
    """All valid windows of an (H, W) image or an (N, H, W) batch, copied from one strided view.

    Windows run image by image, each in row-major order, and each is
    flattened row-major.  Returns an array of shape (N * n_patches,
    size*size), N = 1 for a single image.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim not in (2, 3):
        raise ValueError(f"expected an (H, W) image or (N, H, W) batch, got shape {images.shape}")
    patch_grid(images.shape[-2], images.shape[-1], size, stride)
    windows = np.lib.stride_tricks.sliding_window_view(images, (size, size), axis=(-2, -1))
    windows = windows[..., ::stride, ::stride, :, :]
    return np.array(windows).reshape(-1, size * size)
