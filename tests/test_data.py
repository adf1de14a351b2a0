import gzip
import struct

import numpy as np
import pytest

from hcoh import (ConfigError, Dataset, DimensionError, FormatError, SplitSpec,
                  load_dense, load_idx, load_labels, normalize, save_dense,
                  save_labels, split, split_indices, stream)
from hcoh.data import CHECK_ROWS
from hcoh.cli import MNIST_FILES, load_mnist_dir


def idx_image_bytes(pixels):
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + pixels.tobytes()


def idx_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, labels.shape[0]) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    # Two 2x2 images with hand-picked pixel values.
    pixels = np.array([[[0, 51], [102, 153]],
                       [[204, 255], [0, 128]]], dtype=np.uint8)
    img = tmp_path / "images-idx3-ubyte"
    lab = tmp_path / "labels-idx1-ubyte"
    img.write_bytes(idx_image_bytes(pixels))
    lab.write_bytes(idx_label_bytes([3, 7]))
    return img, lab


class TestLoadIdx:
    def test_hand_built_fixture_exact_values(self, idx_pair):
        ds = load_idx(*idx_pair)
        expected = np.array([[0, 51, 102, 153], [204, 255, 0, 128]]) / 255.0
        np.testing.assert_array_equal(ds.features, expected)
        assert np.array_equal(ds.labels, [3, 7])

    def test_values_in_unit_interval(self, idx_pair):
        ds = load_idx(*idx_pair)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_norm_none_keeps_raw_pixels(self, idx_pair):
        ds = load_idx(*idx_pair, norm="none")
        assert ds.features.max() == 255.0

    def test_norm_zscore_standardizes_features(self, idx_pair):
        ds = load_idx(*idx_pair, norm="zscore")
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)

    def test_gzipped_files_load_transparently(self, idx_pair, tmp_path):
        img, lab = idx_pair
        img_gz = tmp_path / "images-idx3-ubyte.gz"
        lab_gz = tmp_path / "labels-idx1-ubyte.gz"
        img_gz.write_bytes(gzip.compress(img.read_bytes()))
        lab_gz.write_bytes(gzip.compress(lab.read_bytes()))
        np.testing.assert_array_equal(load_idx(img_gz, lab_gz).features,
                                      load_idx(img, lab).features)

    def test_bad_magic_rejected(self, idx_pair, tmp_path):
        img, lab = idx_pair
        bad = tmp_path / "bad-idx3-ubyte"
        bad.write_bytes(b"\x00\x00\x0c\x03" + img.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            load_idx(bad, lab)

    def test_truncated_payload_rejected(self, idx_pair, tmp_path):
        img, lab = idx_pair
        cut = tmp_path / "cut-idx3-ubyte"
        cut.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(FormatError, match="expected"):
            load_idx(cut, lab)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        img, _ = idx_pair
        lab3 = tmp_path / "three-labels-idx1-ubyte"
        lab3.write_bytes(idx_label_bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="count mismatch"):
            load_idx(img, lab3)

    def test_unknown_norm_rejected(self, idx_pair):
        with pytest.raises(ConfigError):
            load_idx(*idx_pair, norm="l2")


def reference_normalize(pixels, norm):
    """The out-of-place formulas, restated: a new array per operation."""
    features = np.asarray(pixels, dtype=np.float64)
    if norm == "unit255":
        return features / 255.0
    if norm == "zscore":
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0] = 1.0
        return (features - mean) / std
    return features


class TestLoadMnistDir:
    @pytest.fixture
    def mnist_files(self, tmp_path):
        """Tiny train and test IDX pairs under the MNIST file names.

        The two files have different pixel ranges, so per-file z-score
        statistics differ from pooled ones, and pixel (0, 0) is constant
        in both, so a zero std is replaced by one.
        """
        rng = np.random.default_rng(4)
        train = rng.integers(0, 256, size=(40, 5, 5), dtype=np.uint8)
        test = rng.integers(0, 128, size=(12, 5, 5), dtype=np.uint8)
        train[:, 0, 0] = test[:, 0, 0] = 9
        labels = {"train": rng.integers(0, 10, 40), "test": rng.integers(0, 10, 12)}
        for part, pixels in (("train", train), ("test", test)):
            (tmp_path / MNIST_FILES[f"{part}_images"]).write_bytes(
                idx_image_bytes(pixels))
            (tmp_path / MNIST_FILES[f"{part}_labels"]).write_bytes(
                idx_label_bytes(labels[part]))
        return tmp_path, (train, test), labels

    @pytest.mark.parametrize("norm", ["unit255", "zscore", "none"])
    def test_bit_equal_to_per_file_normalise_and_vstack(self, mnist_files, norm):
        directory, (train, test), labels = mnist_files
        ds = load_mnist_dir(directory, norm=norm)
        expected = np.vstack([reference_normalize(train.reshape(40, -1), norm),
                              reference_normalize(test.reshape(12, -1), norm)])
        assert ds.features.dtype == np.float64
        assert ds.features.tobytes() == expected.tobytes()
        assert np.array_equal(ds.labels,
                              np.concatenate([labels["train"], labels["test"]]))
        assert ds.name == "mnist"

    @pytest.mark.parametrize("norm", ["unit255", "zscore", "none"])
    def test_single_pair_matches_reference(self, mnist_files, norm):
        directory, (train, _test), _labels = mnist_files
        ds = load_idx(directory / MNIST_FILES["train_images"],
                      directory / MNIST_FILES["train_labels"], norm=norm)
        assert (ds.features.tobytes()
                == reference_normalize(train.reshape(40, -1), norm).tobytes())

    def test_pixel_count_mismatch_rejected(self, mnist_files):
        directory, _pixels, _labels = mnist_files
        (directory / MNIST_FILES["test_images"]).write_bytes(
            idx_image_bytes(np.zeros((12, 4, 4), dtype=np.uint8)))
        with pytest.raises(DimensionError, match=r"\[25, 16\] pixels"):
            load_mnist_dir(directory)


class TestDenseFormat:
    def test_round_trip_to_float_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((12, 5)).astype(np.float32)
        labels = rng.integers(0, 9, 12)
        save_dense(tmp_path / "x.feat", feats)
        save_labels(tmp_path / "x.lab", labels)
        ds = load_dense(tmp_path / "x.feat", tmp_path / "x.lab")
        np.testing.assert_array_equal(ds.features, feats.astype(np.float64))
        assert np.array_equal(ds.labels, labels)

    def test_empty_file_is_valid(self, tmp_path):
        save_dense(tmp_path / "e.feat", np.zeros((0, 4), dtype=np.float32))
        save_labels(tmp_path / "e.lab", np.zeros(0, dtype=np.int64))
        ds = load_dense(tmp_path / "e.feat", tmp_path / "e.lab")
        assert len(ds) == 0

    def test_truncation_names_byte_counts(self, tmp_path):
        save_dense(tmp_path / "x.feat", np.ones((3, 2), dtype=np.float32))
        save_labels(tmp_path / "x.lab", [0, 1, 2])
        blob = (tmp_path / "x.feat").read_bytes()
        (tmp_path / "x.feat").write_bytes(blob[:-4])
        with pytest.raises(FormatError, match=r"expected 41 bytes, got 37"):
            load_dense(tmp_path / "x.feat", tmp_path / "x.lab")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "x.feat").write_bytes(b"WRONGMAG" + bytes(9))
        save_labels(tmp_path / "x.lab", [0])
        with pytest.raises(FormatError, match="magic"):
            load_dense(tmp_path / "x.feat", tmp_path / "x.lab")

    def test_label_count_mismatch_rejected(self, tmp_path):
        save_dense(tmp_path / "x.feat", np.ones((3, 2), dtype=np.float32))
        save_labels(tmp_path / "x.lab", [0, 1])
        with pytest.raises(FormatError, match="count mismatch"):
            load_dense(tmp_path / "x.feat", tmp_path / "x.lab")

    def test_ragged_label_file_rejected(self, tmp_path):
        (tmp_path / "x.lab").write_bytes(bytes(6))
        with pytest.raises(FormatError, match="multiple of 4"):
            load_labels(tmp_path / "x.lab")

    def test_unknown_label_round_trips(self, tmp_path):
        save_labels(tmp_path / "x.lab", [-1, 0, 2**32 - 2])
        assert (tmp_path / "x.lab").read_bytes()[:4] == b"\xff" * 4
        assert np.array_equal(load_labels(tmp_path / "x.lab"), [-1, 0, 2**32 - 2])

    @pytest.mark.parametrize("label", [-2, 2**32 - 1, 2**32 + 5])
    def test_unstorable_label_rejected_without_writing(self, tmp_path, label):
        with pytest.raises(FormatError, match=str(label)):
            save_labels(tmp_path / "x.lab", [0, label])
        assert list(tmp_path.iterdir()) == []


class TestDataset:
    def test_storable_labels_accepted(self):
        ds = Dataset(np.zeros((3, 2)), [-1, 0, 2**32 - 2])
        assert ds.labels.dtype == np.int64
        assert np.array_equal(ds.labels, [-1, 0, 2**32 - 2])

    @pytest.mark.parametrize("label", [-5, -2, 2**32 - 1, 2**32 + 5])
    def test_unstorable_label_rejected(self, label):
        with pytest.raises(FormatError, match=f"dataset 'x': label {label}"):
            Dataset(np.zeros((2, 2)), [0, label], "x")


def synthetic(n_classes=10, per_class=70, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(rng.standard_normal((labels.size, dim)), labels, "synthetic")


class TestSplit:
    def test_protocol_sizes(self):
        ds = synthetic()
        test, retrieval, train = split(ds, SplitSpec(10, 200, seed=1))
        assert len(test) == 100
        assert len(retrieval) == 600
        assert len(train) == 200

    def test_test_is_class_exact_and_disjoint_from_retrieval(self):
        ds = synthetic()
        test, retrieval, _ = split(ds, SplitSpec(10, 200, seed=1))
        for c in range(10):
            assert (test.labels == c).sum() == 10
        test_rows = {tuple(row) for row in test.features}
        retrieval_rows = {tuple(row) for row in retrieval.features}
        assert not test_rows & retrieval_rows

    def test_train_is_subset_of_retrieval(self):
        ds = synthetic()
        _, retrieval, train = split(ds, SplitSpec(10, 200, seed=1))
        retrieval_rows = {tuple(row) for row in retrieval.features}
        assert all(tuple(row) in retrieval_rows for row in train.features)

    def test_split_is_take_of_split_indices(self):
        ds = synthetic()
        spec = SplitSpec(10, 200, seed=4)
        indices = split_indices(ds, spec)
        for part, idx in zip(split(ds, spec), indices):
            assert np.array_equal(idx, np.sort(idx))
            expected = ds.take(idx)
            assert part.features.tobytes() == expected.features.tobytes()
            assert np.array_equal(part.labels, expected.labels)
        test_idx, retrieval_idx, _train_idx = indices
        assert np.array_equal(np.sort(np.concatenate([test_idx, retrieval_idx])),
                              np.arange(len(ds)))

    def test_same_seed_same_indices(self):
        ds = synthetic()
        a = split(ds, SplitSpec(10, 200, seed=5))
        b = split(ds, SplitSpec(10, 200, seed=5))
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a.features, part_b.features)

    def test_zero_test_per_class_keeps_everything(self):
        ds = synthetic()
        test, retrieval, _ = split(ds, SplitSpec(0, 100, seed=2))
        assert len(test) == 0
        assert len(retrieval) == len(ds)

    def test_infeasible_spec_names_deficient_classes(self):
        ds = synthetic(per_class=5)
        with pytest.raises(ConfigError, match=r"classes \[0"):
            split(ds, SplitSpec(10, 10, seed=0))

    def test_oversized_train_subset_rejected(self):
        ds = synthetic()
        with pytest.raises(ConfigError, match="train_subset"):
            split(ds, SplitSpec(10, 601, seed=0))


class TestStream:
    def test_unit_batches_cover_every_instance_once(self):
        ds = synthetic(n_classes=3, per_class=40)
        batches = list(stream(ds, 1, seed=0))
        assert len(batches) == 120
        rows = np.vstack([feats for feats, _labels in batches])
        assert {tuple(r) for r in rows} == {tuple(r) for r in ds.features}

    def test_concatenation_is_a_permutation(self):
        ds = synthetic(n_classes=3, per_class=10)
        batches = list(stream(ds, 7, seed=3))
        labels = np.concatenate([chunk for _feats, chunk in batches])
        assert sorted(labels) == sorted(ds.labels)
        last_feats, last_labels = batches[-1]  # the final partial chunk
        assert len(last_feats) == len(last_labels) == 30 - 7 * 4

    def test_same_seed_same_order(self):
        ds = synthetic(n_classes=3, per_class=10)
        a = np.vstack([feats for feats, _labels in stream(ds, 4, seed=9)])
        b = np.vstack([feats for feats, _labels in stream(ds, 4, seed=9)])
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_batch(self):
        with pytest.raises(ConfigError):
            list(stream(synthetic(), 0, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_before_first_chunk(self, bad):
        ds = synthetic(n_classes=3, per_class=10)
        ds.features[17, 2] = bad
        chunks = stream(ds, 1, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            next(chunks)


    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_indices_yield_the_batches_of_the_taken_rows(self, batch_size):
        ds = synthetic(n_classes=5, per_class=40)
        train_idx = split_indices(ds, SplitSpec(4, 90, seed=6))[2]
        direct = list(stream(ds, batch_size, seed=2, indices=train_idx))
        taken = list(stream(ds.take(train_idx), batch_size, seed=2))
        order = train_idx[np.random.default_rng(2).permutation(90)]
        assert len(direct) == len(taken) == -(-90 // batch_size)
        for i, ((feats, labels), (ref_feats, ref_labels)) in enumerate(
                zip(direct, taken)):
            rows = order[i * batch_size:(i + 1) * batch_size]
            assert feats.tobytes() == ref_feats.tobytes() == ds.features[rows].tobytes()
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(labels, ds.labels[rows])

    def test_finiteness_check_covers_only_the_training_rows(self):
        rows = 3 * CHECK_ROWS
        ds = Dataset(np.zeros((rows, 3)), np.zeros(rows, dtype=np.int64), "big")
        bad = rows - 5  # in the last check block
        ds.features[bad, 1] = np.nan
        kept = np.flatnonzero(np.arange(rows) != bad)
        assert len(list(stream(ds, 64, seed=0, indices=kept))) == -(-(rows - 1) // 64)
        with pytest.raises(ValueError, match=rf"row {bad} of dataset 'big'"):
            next(stream(ds, 64, seed=0, indices=np.arange(1, rows, 2)))


def test_normalize_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        normalize(np.ones((2, 2)), "bogus")
