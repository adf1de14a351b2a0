import gzip
import re
import struct
import tracemalloc

import numpy as np
import pytest

from hcoh import (ConfigError, Dataset, DimensionError, FormatError, SplitSpec,
                  load_dense, load_idx, load_labels, save_dense,
                  save_labels, split, split_indices, stream)
from hcoh import data
from hcoh.data import CHECK_ROWS, MNIST_FILES, load_mnist_dir
from tests.conftest import idx_image_bytes, idx_label_bytes


# Ways a gzip file can be damaged, each met by a different exception of
# the gzip module: a stream cut halfway (EOFError), bytes that are not
# gzip at all (gzip.BadGzipFile), and a gzip header over a deflate block
# of the reserved type 3 (zlib.error).
DAMAGED_GZIP = {
    "cut": lambda blob: gzip.compress(blob)[:len(gzip.compress(blob)) // 2],
    "not-gzip": lambda blob: blob,
    "bad-deflate": lambda blob: gzip.compress(b"")[:10] + b"\x07" + bytes(16),
}


def damaged_gzip_error(path):
    return pytest.raises(FormatError, match=re.escape(f"{path}: damaged gzip data"))


def gzip_copy(path):
    """Write ``path`` gzipped beside it; the .gz path."""
    gz = path.with_name(path.name + ".gz")
    gz.write_bytes(gzip.compress(path.read_bytes()))
    return gz


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

    @pytest.mark.parametrize("part, keep, error", [
        (0, 2, "truncated, no magic (2 bytes)"),
        (0, 10, "truncated IDX header"),
        (1, -1, "expected 10 bytes for dims (2,), got 9"),
    ], ids=["in-magic", "in-dims", "label-payload"])
    def test_cut_file_rejected_naming_it(self, idx_pair, part, keep, error):
        path = idx_pair[part]
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match=re.escape(f"{path}: {error}")):
            load_idx(*idx_pair)

    def test_count_mismatch_rejected(self, idx_pair, tmp_path):
        img, _ = idx_pair
        lab3 = tmp_path / "three-labels-idx1-ubyte"
        lab3.write_bytes(idx_label_bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="count mismatch"):
            load_idx(img, lab3)

    def test_unknown_norm_rejected(self, idx_pair):
        with pytest.raises(ConfigError):
            load_idx(*idx_pair, norm="l2")

    def test_empty_file_is_valid(self, tmp_path):
        (tmp_path / "img").write_bytes(idx_image_bytes(np.zeros((0, 5, 5))))
        (tmp_path / "lab").write_bytes(idx_label_bytes([]))
        assert load_idx(tmp_path / "img", tmp_path / "lab").features.shape == (0, 25)

    @pytest.mark.parametrize("damage", sorted(DAMAGED_GZIP))
    def test_damaged_gzip_image_file_named(self, idx_pair, tmp_path, damage):
        img, lab = idx_pair
        bad = tmp_path / "bad-idx3-ubyte.gz"
        bad.write_bytes(DAMAGED_GZIP[damage](img.read_bytes()))
        with damaged_gzip_error(bad):
            load_idx(bad, lab)

    @pytest.mark.parametrize("damage", sorted(DAMAGED_GZIP))
    def test_damaged_gzip_label_file_named(self, idx_pair, tmp_path, damage):
        img, lab = idx_pair
        bad = tmp_path / "bad-idx1-ubyte.gz"
        bad.write_bytes(DAMAGED_GZIP[damage](lab.read_bytes()))
        with damaged_gzip_error(bad):
            load_idx(img, bad)


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

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("norm", ["unit255", "zscore", "none"])
    def test_ragged_row_blocks_bit_equal_to_reference(self, mnist_files, monkeypatch,
                                                      norm, compress):
        directory, (train, test), labels = mnist_files
        if compress:
            directory = directory / "gz"
            directory.mkdir()
            for name in MNIST_FILES.values():
                (directory / (name + ".gz")).write_bytes(
                    gzip.compress((directory.parent / name).read_bytes()))
        suffix = ".gz" if compress else ""
        monkeypatch.setattr(data, "READ_ROWS", 7)  # 40 = 5 x 7 + 5 rows, 12 = 7 + 5
        train_ref = reference_normalize(train.reshape(40, -1), norm)
        ds = load_mnist_dir(directory, norm=norm)
        expected = np.vstack([train_ref,
                              reference_normalize(test.reshape(12, -1), norm)])
        assert ds.features.tobytes() == expected.tobytes()
        assert np.array_equal(ds.labels,
                              np.concatenate([labels["train"], labels["test"]]))
        single = load_idx(directory / (MNIST_FILES["train_images"] + suffix),
                          directory / (MNIST_FILES["train_labels"] + suffix),
                          norm=norm)
        assert single.features.tobytes() == train_ref.tobytes()

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

    @pytest.mark.parametrize("damage", sorted(DAMAGED_GZIP))
    def test_damaged_gzip_feature_file_named(self, tmp_path, damage):
        save_dense(tmp_path / "x.feat", np.ones((3, 2), dtype=np.float32))
        save_labels(tmp_path / "x.lab", [0, 1, 2])
        bad = tmp_path / "x.feat.gz"
        bad.write_bytes(DAMAGED_GZIP[damage]((tmp_path / "x.feat").read_bytes()))
        with damaged_gzip_error(bad):
            load_dense(bad, tmp_path / "x.lab")

    @pytest.mark.parametrize("damage", sorted(DAMAGED_GZIP))
    def test_damaged_gzip_label_file_named(self, tmp_path, damage):
        save_labels(tmp_path / "x.lab", [0, 1, 2])
        bad = tmp_path / "x.lab.gz"
        bad.write_bytes(DAMAGED_GZIP[damage]((tmp_path / "x.lab").read_bytes()))
        with damaged_gzip_error(bad):
            load_labels(bad)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    def test_ragged_row_blocks_equal_float32_cast(self, tmp_path, monkeypatch,
                                                  compress):
        feats = np.random.default_rng(3).standard_normal((12, 5)).astype(np.float32)
        save_dense(tmp_path / "x.feat", feats)
        save_labels(tmp_path / "x.lab", np.arange(12))
        path = gzip_copy(tmp_path / "x.feat") if compress else tmp_path / "x.feat"
        monkeypatch.setattr(data, "READ_ROWS", 7)  # blocks of 7 and 5 rows
        ds = load_dense(path, tmp_path / "x.lab")
        assert ds.features.tobytes() == feats.astype(np.float64).tobytes()

    def test_unknown_label_round_trips(self, tmp_path):
        save_labels(tmp_path / "x.lab", [-1, 0, 2**32 - 2])
        assert (tmp_path / "x.lab").read_bytes()[:4] == b"\xff" * 4
        assert np.array_equal(load_labels(tmp_path / "x.lab"), [-1, 0, 2**32 - 2])

    @pytest.mark.parametrize("label", [-2, 2**32 - 1, 2**32 + 5])
    def test_unstorable_label_rejected_without_writing(self, tmp_path, label):
        with pytest.raises(FormatError, match=str(label)):
            save_labels(tmp_path / "x.lab", [0, label])
        assert list(tmp_path.iterdir()) == []


def idx_files(directory, n=3):
    """An IDX image file of n 4x4 images and its label file; the image path."""
    pixels = np.arange(n * 16, dtype=np.uint8).reshape(n, 4, 4)
    (directory / "data").write_bytes(idx_image_bytes(pixels))
    (directory / "labels").write_bytes(idx_label_bytes(np.arange(n) % 10))
    return directory / "data"


def dense_files(directory, n=3):
    """An HCOHFEAT file of n x 2 features and its label file; the feature path."""
    save_dense(directory / "data", np.ones((n, 2), dtype=np.float32))
    save_labels(directory / "labels", np.arange(n))
    return directory / "data"


LOADERS = {
    "idx": (idx_files, lambda path: load_idx(path, path.with_name("labels"))),
    "dense": (dense_files, lambda path: load_dense(path, path.with_name("labels"))),
}


class TestSizeChecks:
    """A payload shorter or longer than its header declares, in every carrier."""

    @pytest.mark.parametrize("change", [-5, 6], ids=["short", "long"])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gz"])
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_byte_counts_named(self, tmp_path, kind, compress, change):
        write, load = LOADERS[kind]
        path = write(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        if compress:
            path = gzip_copy(path)
        with pytest.raises(FormatError, match=re.escape(str(path)) +
                           rf": expected {len(blob)} bytes.*, got {len(blob) + change}$"):
            load(path)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_gzip_too_small_for_its_header_rejected(self, tmp_path, kind):
        # One row of 2**31 features or pixels: more than 1032 times the
        # gzip file's size, so no read of the payload is tried.
        write, load = LOADERS[kind]
        path = write(tmp_path, n=1)
        blob = bytearray(path.read_bytes())
        if kind == "idx":
            blob[8:16] = struct.pack(">II", 2**16, 2**15)
        else:
            blob[13:17] = struct.pack("<I", 2**31)
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"more than \d+ bytes of gzip data"):
            load(gzip_copy(path))


def traced_peak(load):
    """(the result of ``load()``, the peak of memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = load()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A load holds the float64 matrix and one read buffer, not the file's bytes."""

    def test_idx_unit255_peak(self, tmp_path):
        pixels = np.random.default_rng(5).integers(0, 256, (3000, 28, 28), dtype=np.uint8)
        (tmp_path / "img").write_bytes(idx_image_bytes(pixels))
        (tmp_path / "lab").write_bytes(idx_label_bytes(np.arange(3000) % 10))
        ds, peak = traced_peak(lambda: load_idx(tmp_path / "img", tmp_path / "lab"))
        assert ds.features.tobytes() == (pixels.reshape(3000, -1) / 255.0).tobytes()
        assert peak < ds.features.nbytes * 1.05 + data.READ_ROWS * 784

    def test_dense_peak(self, tmp_path):
        feats = np.random.default_rng(6).standard_normal((20_000, 128)).astype(np.float32)
        save_dense(tmp_path / "x.feat", feats)
        save_labels(tmp_path / "x.lab", np.arange(20_000) % 10)
        ds, peak = traced_peak(lambda: load_dense(tmp_path / "x.feat", tmp_path / "x.lab"))
        assert ds.features.tobytes() == feats.astype(np.float64).tobytes()
        assert peak < ds.features.nbytes * 1.05 + data.READ_ROWS * 128 * 4

    def test_idx_zscore_peak(self, tmp_path):
        pixels = np.random.default_rng(5).integers(0, 256, (3000, 28, 28), dtype=np.uint8)
        (tmp_path / "img").write_bytes(idx_image_bytes(pixels))
        (tmp_path / "lab").write_bytes(idx_label_bytes(np.arange(3000) % 10))
        ds, peak = traced_peak(lambda: load_idx(tmp_path / "img", tmp_path / "lab",
                                                norm="zscore"))
        assert (ds.features.tobytes()
                == reference_normalize(pixels.reshape(3000, -1), "zscore").tobytes())
        # The matrix, one read buffer and one (READ_ROWS + 1)-row float64
        # block of squared deviations; no second matrix.
        assert peak < ds.features.nbytes * 1.1 + (data.READ_ROWS + 1) * 784 * 8

    def test_overlong_gzip_label_file_refused_unheld(self, idx_pair):
        # Two labels declared, then 16 MiB of zeros that gzip to 16 KB:
        # the overrun is counted as it inflates, never held whole.
        img, lab = idx_pair
        blob = lab.read_bytes() + bytes(16 << 20)
        long = lab.with_name(lab.name + ".gz")
        long.write_bytes(gzip.compress(blob, compresslevel=1))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(
                    f"{long}: expected 10 bytes for dims (2,), got {len(blob)}")
                    + "$"):
                load_idx(img, long)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestStandardize:
    """Row-blocked z-score: the std of ``features.std(axis=0)``, bit for bit."""

    @pytest.mark.parametrize("shape", [(3000, 784), (1000, 7), (70_001, 33),
                                       (257, 5), (256, 3), (255, 2), (1, 4),
                                       (513, 1)])
    # load_idx standardizes C-ordered rows only.
    @pytest.mark.parametrize("order", ["C"])
    def test_bit_equal_to_whole_matrix_std(self, shape, order):
        rng = np.random.default_rng(shape[0])
        pixels = rng.integers(0, 256, shape).astype(np.float64, order=order)
        pixels[:, 0] = 9.0  # a constant column: its zero std counts as one
        features = pixels.copy()
        data._standardize(features)
        assert features.tobytes() == reference_normalize(pixels, "zscore").tobytes()


class TestDataset:
    def test_storable_labels_accepted(self):
        ds = Dataset(np.zeros((3, 2)), [-1, 0, 2**32 - 2])
        assert ds.labels.dtype == np.int64
        assert np.array_equal(ds.labels, [-1, 0, 2**32 - 2])

    @pytest.mark.parametrize("label", [-5, -2, 2**32 - 1, 2**32 + 5])
    def test_unstorable_label_rejected(self, label):
        with pytest.raises(FormatError, match=f"dataset 'x': label {label}"):
            Dataset(np.zeros((2, 2)), [0, label], "x")

    def test_more_rows_than_labels_rejected(self):
        with pytest.raises(DimensionError, match="3 feature rows but 2 labels"):
            Dataset(np.zeros((3, 2)), [0, 1])


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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_class_loop_oracle(self, seed):
        # 1,000 classes of uneven sizes, at least 3 rows each, in shuffled
        # row order, and labels that are not contiguous integers.
        rng = np.random.default_rng(seed)
        classes = rng.choice(5 * 1000, size=1000, replace=False)
        labels = classes[rng.permutation(np.concatenate([
            np.repeat(np.arange(1000), 3), rng.integers(0, 1000, 17_000)]))]
        ds = Dataset(np.zeros((len(labels), 1)), labels)
        spec = SplitSpec(3, 5000, seed=seed)
        for got, expected in zip(split_indices(ds, spec),
                                 per_class_split_indices(ds, spec)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

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


def per_class_split_indices(dataset, spec):
    """``split_indices`` as one comparison of every label per class: the oracle."""
    rng = np.random.default_rng(spec.seed)
    classes = np.unique(dataset.labels)
    test_idx = []
    if spec.test_per_class > 0:
        for c in classes:
            members = np.flatnonzero(dataset.labels == c)
            assert len(members) >= spec.test_per_class
            test_idx.append(rng.choice(members, size=spec.test_per_class,
                                       replace=False))
    test_idx = (np.sort(np.concatenate(test_idx))
                if test_idx else np.empty(0, dtype=np.int64))
    mask = np.ones(len(dataset), dtype=bool)
    mask[test_idx] = False
    retrieval_idx = np.flatnonzero(mask)
    train_idx = np.sort(rng.choice(retrieval_idx, size=spec.train_subset,
                                   replace=False))
    return test_idx, retrieval_idx, train_idx


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


    @pytest.mark.parametrize("batch_size", [1, 7, 128, 129, 200])
    def test_indices_yield_the_batches_of_the_taken_rows(self, batch_size):
        # 170 training rows: more than one gathered span at every batch
        # size here but 200.
        ds = synthetic(n_classes=5, per_class=40)
        train_idx = split_indices(ds, SplitSpec(4, 170, seed=6))[2]
        direct = list(stream(ds, batch_size, seed=2, indices=train_idx))
        taken = list(stream(ds.take(train_idx), batch_size, seed=2))
        order = train_idx[np.random.default_rng(2).permutation(170)]
        assert len(direct) == len(taken) == -(-170 // batch_size)
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
