"""Dataset loading, normalization, synthetic generation and patch tests."""

import zipfile

import numpy as np
import pytest

from qccnn import data
from qccnn.data import (
    _SYNTHETIC_MAX_BYTES,
    DataError,
    Dataset,
    SyntheticSpec,
    extract_patches,
    generate_synthetic,
    load_array_archive,
    load_dataset,
    normalize_pixels,
    patch_grid,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_pixel_normalization_endpoints():
    np.testing.assert_allclose(normalize_pixels([0, 255]), [-1.0, 1.0])
    assert abs(normalize_pixels(127) - (-0.00392156862745097)) < 1e-15


def test_normalization_round_trip_exact():
    pixels = np.arange(256, dtype=np.uint8)
    back = np.rint((normalize_pixels(pixels) + 1.0) * 255.0 / 2.0).astype(np.uint8)
    np.testing.assert_array_equal(back, pixels)


# ---------------------------------------------------------------------------
# archive loader
# ---------------------------------------------------------------------------


def _write_archive(path, train_n=546, val_n=78, h=28, w=28, labels=None, corrupt=None,
                   image_dtype=np.uint8, channels=None, keep=40):
    rng = np.random.default_rng(0)
    payload = {}
    for split, n in (("train", train_n), ("val", val_n)):
        shape = (n, h, w) if channels is None else (n, h, w, channels)
        payload[f"{split}_images"] = rng.integers(0, 256, shape).astype(image_dtype)
        payload[f"{split}_labels"] = (
            labels if labels is not None else rng.integers(0, 2, n).astype(np.uint8)
        )
    np.savez(path, **payload)
    if corrupt:
        with zipfile.ZipFile(path) as zf:
            records = {name: zf.read(name) for name in zf.namelist()}
        records[corrupt] = records[corrupt][:keep]  # truncate the member
        with zipfile.ZipFile(path, "w") as zf:
            for name, blob in records.items():
                zf.writestr(name, blob)


def test_archive_split_sizes_and_range(tmp_path):
    path = tmp_path / "data.npz"
    _write_archive(path)
    train, val = load_array_archive(path)
    assert (len(train), len(val)) == (546, 78)
    assert train.image_shape == (28, 28)
    assert np.all(np.abs(train.images) <= 1.0)


def test_archive_missing_key(tmp_path):
    path = tmp_path / "data.npz"
    rng = np.random.default_rng(0)
    np.savez(path, train_images=rng.integers(0, 255, (4, 8, 8)).astype(np.uint8))
    with pytest.raises(DataError, match="train_labels"):
        load_array_archive(path)


def test_archive_truncated_record(tmp_path):
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=4, val_n=2, h=8, w=8, corrupt="val_images.npy")
    with pytest.raises(DataError, match="val_images"):
        load_array_archive(path)


def test_archive_truncated_array_data(tmp_path):
    # The record keeps its 128-byte header and 72 of its 128 pixels.
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=4, val_n=2, h=8, w=8, corrupt="val_images.npy", keep=200)
    with pytest.raises(DataError, match="'val_images': buffer is smaller than requested size"):
        load_array_archive(path)


def _rewrite_record(path, name, rewrite):
    with zipfile.ZipFile(path) as zf:
        records = {member: zf.read(member) for member in zf.namelist()}
    records[name] = rewrite(records[name])
    with zipfile.ZipFile(path, "w") as zf:
        for member, blob in records.items():
            zf.writestr(member, blob)


def test_archive_rejects_unknown_record_version(tmp_path):
    # Version bytes 9.0 after the magic string; the loader knows 1.0, 2.0 and 3.0.
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=4, val_n=2, h=8, w=8)
    _rewrite_record(path, "val_labels.npy", lambda blob: blob[:6] + b"\x09\x00" + blob[8:])
    with pytest.raises(DataError, match=r"'val_labels': unsupported array record version \(9, 0\)"):
        load_array_archive(path)


def test_archive_reads_version_3_record(tmp_path):
    # A 3.0 record has a 4-byte header length and a UTF-8 header.
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=4, val_n=2, h=8, w=8)
    _, val = load_array_archive(path)
    header = b"{'descr': '|u1', 'fortran_order': False, 'shape': (2,), }\n"
    record = b"\x93NUMPY\x03\x00" + len(header).to_bytes(4, "little") + header
    record += val.labels.astype(np.uint8).tobytes()
    _rewrite_record(path, "val_labels.npy", lambda blob: record)
    np.testing.assert_array_equal(load_array_archive(path)[1].labels, val.labels)


def test_archive_rejects_non_binary_labels(tmp_path):
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=3, val_n=3, h=4, w=4,
                   labels=np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(DataError, match="non-binary"):
        load_array_archive(path)


def test_archive_rejects_rgb(tmp_path):
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=3, val_n=3, h=4, w=4, channels=3)
    with pytest.raises(DataError, match="grayscale"):
        load_array_archive(path)


def test_archive_accepts_trailing_singleton_channel(tmp_path):
    path = tmp_path / "data.npz"
    _write_archive(path, train_n=3, val_n=3, h=4, w=4, channels=1)
    train, _ = load_array_archive(path)
    assert train.images.shape == (3, 4, 4)


def test_load_dataset_resolver(tmp_path):
    train, val = load_dataset("synthetic:seed=3,train_n=10,val_n=4")
    assert (len(train), len(val)) == (10, 4)
    with pytest.raises(DataError, match="unrecognized"):
        load_dataset(tmp_path / "nothing.bin")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def test_synthetic_deterministic():
    a_train, a_val = generate_synthetic(SyntheticSpec(seed=4))
    b_train, b_val = generate_synthetic(SyntheticSpec(seed=4))
    np.testing.assert_array_equal(a_train.images, b_train.images)
    np.testing.assert_array_equal(a_val.labels, b_val.labels)


def test_synthetic_label_balance():
    train, val = generate_synthetic(SyntheticSpec(train_n=31, val_n=10))
    for ds in (train, val):
        counts = np.bincount(ds.labels, minlength=2)
        assert abs(counts[0] - counts[1]) <= 1


def test_synthetic_two_pixel_threshold_separates_noiseless(monkeypatch):
    monkeypatch.setattr(data, "_SYNTHETIC_NOISE", 0.0)
    train, val = generate_synthetic(SyntheticSpec())
    for ds in (train, val):
        # compare the two blob centers
        predicted = (ds.images[:, 6, 6] > ds.images[:, 2, 2]).astype(int)
        assert np.array_equal(predicted, ds.labels)


def test_synthetic_limit_leaves_room_for_the_real_image_size():
    # The 28x28 stand-in for the real dataset is far inside the image-size limit.
    train, val = load_dataset("synthetic:size=28,train_n=546,val_n=78")
    assert (train.images.nbytes + val.images.nbytes) * 100 < _SYNTHETIC_MAX_BYTES


def test_synthetic_values_clipped(monkeypatch):
    monkeypatch.setattr(data, "_SYNTHETIC_NOISE", 0.5)
    train, _ = generate_synthetic(SyntheticSpec())
    assert np.all(np.abs(train.images) <= 1.0)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def test_patch_arithmetic_28x28():
    assert patch_grid(28, 28, 2) == (14, 14)
    patches = extract_patches(np.zeros((1, 28, 28)), 2)
    assert patches.shape == (196, 4)


def test_single_patch_equals_image():
    image = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    np.testing.assert_array_equal(extract_patches(image / 4, 2), [[0.25, 0.5, 0.75, 1.0]])


def test_three_by_three_stride_two_keeps_only_valid_window():
    patches = extract_patches(np.arange(9.0).reshape(1, 3, 3) / 8, 2)
    assert patches.shape == (1, 4)


def test_patch_count_matches_window_enumeration():
    for h in range(2, 12):
        for w in range(2, 12):
            for stride in (1, 2, 3):
                count = 0
                for i in range(0, h - 1, stride):
                    for j in range(0, w - 1, stride):
                        count += 1
                got = extract_patches(np.zeros((1, h, w)), stride).shape[0]
                assert got == count, (h, w, stride)


def test_patches_row_major_order_and_flattening():
    image = np.arange(16.0).reshape(4, 4) / 15
    patches = extract_patches(image[None], 2)
    np.testing.assert_allclose(patches[0], image[[0, 0, 1, 1], [0, 1, 0, 1]])
    np.testing.assert_allclose(patches[1], image[[0, 0, 1, 1], [2, 3, 2, 3]])
    np.testing.assert_allclose(patches[2], image[[2, 2, 3, 3], [0, 1, 0, 1]])


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_batch_patches_are_each_images_patches_in_order(stride):
    images = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 5, 6))
    want = np.concatenate([extract_patches(image[None], stride) for image in images])
    np.testing.assert_array_equal(extract_patches(images, stride), want)


def test_image_smaller_than_window_rejected():
    with pytest.raises(ValueError, match="smaller"):
        extract_patches(np.zeros((1, 1, 5)), 2)


def test_dataset_validates_shapes():
    with pytest.raises(DataError, match="labels"):
        Dataset(np.zeros((3, 4, 4)), np.zeros(2, dtype=int))
