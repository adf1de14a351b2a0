"""Dataset loading, protocol splits, and the seeded training stream.

Two on-disk feature carriers are supported (byte layouts in FORMATS.md):

* IDX, the MNIST container: big-endian dims, ubyte payload.  Pixels are
  scaled to [0, 1] by default (``norm="unit255"``); ``"zscore"``
  standardizes each feature over the loaded file and ``"none"`` keeps raw
  values.  Gzipped files (.gz) are read transparently.
* HCOHFEAT, a minimal dense float32 matrix with a little-endian header,
  for precomputed features of any provenance; stored values pass through
  unchanged.  Labels ride in a bare u32 array file, 0xFFFFFFFF standing
  for the unknown label -1.

A loaded dataset holds one float64 feature matrix, and training and
evaluation index into it instead of copying it.  The benchmark split
takes a seeded per-class sample as the query (test) set, leaves the
remainder as the retrieval database, and draws the training subset
uniformly from the retrieval set (train is a subset of retrieval, not
disjoint from it); ``split_indices`` returns the three parts as row
indices, and only ``split`` copies them into Datasets of their own.
Training data is then streamed in a seeded random order, single pass,
in batches of a fixed size, as (features, labels) array pairs: each
span of up to SPAN_ROWS rows is gathered from the parent dataset by one
fancy index and yielded a batch-sized slice at a time.
"""

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from .fileio import atomic_write, check_labels, labels_from_u32, labels_to_u32

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
FEAT_MAGIC = b"HCOHFEAT"
FEAT_VERSION = 1
NORM_MODES = ("unit255", "zscore", "none")


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64, each in [0, 0xFFFFFFFF) or -1
    name: str = ""

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.labels = np.atleast_1d(
            check_labels(self.labels, f"dataset {self.name!r}"))
        if self.features.shape[0] != self.labels.shape[0]:
            raise DimensionError(
                f"{self.features.shape[0]} feature rows but "
                f"{self.labels.shape[0]} labels")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray, name: str = None) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices],
                       name if name is not None else self.name)


@dataclass
class SplitSpec:
    """Benchmark split sizes: per-class test sample and train-subset size."""

    test_per_class: int
    train_subset: int
    seed: int


def _read_file(path) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def _parse_idx(data: bytes, path, expect_magic: int):
    if len(data) < 4:
        raise FormatError(f"{path}: truncated, no magic ({len(data)} bytes)")
    magic = struct.unpack_from(">I", data, 0)[0]
    if magic != expect_magic:
        raise FormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(data) < header:
        raise FormatError(f"{path}: truncated IDX header")
    dims = struct.unpack_from(f">{ndim}I", data, 4)
    expected = header + int(np.prod(dims))
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for dims {dims}, got {len(data)}")
    payload = np.frombuffer(data, dtype=np.uint8, offset=header)
    return payload.reshape(dims)


def normalize(features: np.ndarray, norm: str, out: np.ndarray = None) -> np.ndarray:
    """Apply one of the NORM_MODES to raw-pixel features.

    The result is written into ``out``, a float64 array of the features'
    shape, or into a new one when ``out`` is None; the features are cast
    into it once and scaled there in place, with no other array of their
    size.  ``"zscore"`` uses the mean and standard deviation of these
    rows alone.
    """
    if norm not in NORM_MODES:
        raise ConfigError(f"norm must be one of {NORM_MODES}, got {norm!r}")
    if out is None:
        out = np.empty(np.shape(features), dtype=np.float64)
    out[...] = features
    if norm == "unit255":
        out /= 255.0
    elif norm == "zscore":
        mean = out.mean(axis=0)
        std = out.std(axis=0)
        std[std == 0] = 1.0
        out -= mean
        out /= std
    return out


def _read_idx(image_path, label_path):
    """(flat uint8 images, int64 labels) of one IDX file pair."""
    images = _parse_idx(_read_file(image_path), image_path, IDX_IMAGE_MAGIC)
    labels = _parse_idx(_read_file(label_path), label_path, IDX_LABEL_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"count mismatch: {images.shape[0]} images in {image_path} but "
            f"{labels.shape[0]} labels in {label_path}")
    return images.reshape(images.shape[0], -1), labels.astype(np.int64)


def load_idx(image_path, label_path, norm: str = "unit255",
             extra_pairs=()) -> Dataset:
    """Load IDX image/label file pairs into one flat-feature Dataset.

    The rows of each (image, label) pair in ``extra_pairs`` follow those
    of the first pair, in order.  The float64 feature matrix is allocated
    once and every image file is normalised straight into its own rows,
    so ``"zscore"`` standardizes each file with its own statistics.
    """
    pairs = [(image_path, label_path), *extra_pairs]
    parts = [_read_idx(images, labels) for images, labels in pairs]
    dims = [images.shape[1] for images, _labels in parts]
    if len(set(dims)) > 1:
        raise DimensionError(
            f"image files {[str(p[0]) for p in pairs]} hold {dims} pixels "
            f"per image; they must agree")
    features = np.empty((sum(len(labels) for _images, labels in parts), dims[0]),
                        dtype=np.float64)
    lo = 0
    for images, _labels in parts:
        normalize(images, norm, out=features[lo:lo + len(images)])
        lo += len(images)
    return Dataset(features, np.concatenate([labels for _images, labels in parts]),
                   name="idx")


def load_dense(feature_path, label_path) -> Dataset:
    """Load an HCOHFEAT matrix and its u32 label file, values as stored."""
    data = _read_file(feature_path)
    if data[:8] != FEAT_MAGIC:
        raise FormatError(
            f"{feature_path}: bad magic {data[:8]!r}, expected {FEAT_MAGIC!r}")
    if len(data) < 17:
        raise FormatError(f"{feature_path}: truncated header ({len(data)} bytes)")
    version, n, d = struct.unpack_from("<BII", data, 8)
    if version != FEAT_VERSION:
        raise FormatError(f"{feature_path}: unsupported version {version}")
    expected = 17 + n * d * 4
    if len(data) != expected:
        raise FormatError(
            f"{feature_path}: expected {expected} bytes, got {len(data)}")
    features = np.frombuffer(data, dtype="<f4", offset=17).reshape(n, d)
    labels = load_labels(label_path)
    if labels.shape[0] != n:
        raise FormatError(
            f"count mismatch: {n} feature rows in {feature_path} but "
            f"{labels.shape[0]} labels in {label_path}")
    return Dataset(features.astype(np.float64), labels, name="dense")


def save_dense(path, features: np.ndarray) -> None:
    features = np.atleast_2d(np.asarray(features, dtype=np.float32))
    n, d = features.shape
    atomic_write(path, [FEAT_MAGIC, struct.pack("<BII", FEAT_VERSION, n, d),
                        features.astype("<f4").tobytes()])


def load_labels(path) -> np.ndarray:
    data = _read_file(path)
    if len(data) % 4 != 0:
        raise FormatError(
            f"{path}: label file size {len(data)} not a multiple of 4")
    return labels_from_u32(np.frombuffer(data, dtype="<u4"))


def save_labels(path, labels: np.ndarray) -> None:
    """Write a label file atomically; -1 (unknown) is stored as 0xFFFFFFFF.

    Raises FormatError for any other label outside [0, 0xFFFFFFFF).
    """
    atomic_write(path, [labels_to_u32(labels, path).tobytes()])


def split_indices(dataset: Dataset, spec: SplitSpec):
    """Sorted row indices of the seeded (test, retrieval, train) split.

    Test draws ``test_per_class`` instances from every class without
    replacement, the classes in ascending order, each from its rows in
    ascending order (one stable argsort by label gives them all);
    retrieval is everything else; train is a uniform subset of retrieval
    of size ``train_subset``.  Test and retrieval together are every row
    of ``dataset``.
    """
    rng = np.random.default_rng(spec.seed)
    test_idx = []
    if spec.test_per_class > 0:
        classes, counts = np.unique(dataset.labels, return_counts=True)
        deficient = classes[counts < spec.test_per_class].tolist()
        if deficient:
            raise ConfigError(
                f"classes {deficient} have fewer than "
                f"{spec.test_per_class} instances")
        by_class = np.argsort(dataset.labels, kind="stable")
        for members in np.split(by_class, np.cumsum(counts))[:-1]:
            chosen = rng.choice(members, size=spec.test_per_class, replace=False)
            test_idx.append(chosen)
    test_idx = (np.sort(np.concatenate(test_idx))
                if test_idx else np.empty(0, dtype=np.int64))
    mask = np.ones(len(dataset), dtype=bool)
    mask[test_idx] = False
    retrieval_idx = np.flatnonzero(mask)
    if spec.train_subset > retrieval_idx.shape[0]:
        raise ConfigError(
            f"train_subset {spec.train_subset} exceeds retrieval size "
            f"{retrieval_idx.shape[0]}")
    train_idx = np.sort(rng.choice(retrieval_idx, size=spec.train_subset,
                                   replace=False))
    return test_idx, retrieval_idx, train_idx


def split(dataset: Dataset, spec: SplitSpec):
    """The :func:`split_indices` parts copied into (test, retrieval, train)."""
    return tuple(dataset.take(idx, name) for idx, name in
                 zip(split_indices(dataset, spec), ("test", "retrieval", "train")))


# Rows gathered per block by stream's finiteness check: 1,024 rows of 784
# float64 features is a 6.4 MB temporary.
CHECK_ROWS = 1024
# Rows stream gathers by one fancy index, rounded down to whole batches:
# as many as one training block holds (learner.BLOCK_ROWS); a larger span
# only makes the gathered copy larger.
SPAN_ROWS = 128


def stream(dataset: Dataset, batch_size: int, seed: int, indices=None):
    """Yield (features, labels) chunks of a seeded permutation of training rows.

    The training rows are ``dataset`` rows ``indices``, or every row when
    ``indices`` is None.  They are gathered from ``dataset`` as the stream
    goes, SPAN_ROWS rows (or one batch, when a batch is larger) by one
    fancy index, and each chunk is a slice of its span, so no copy of
    the training set is made.  Single pass: every instance appears
    exactly once.  The final chunk may be smaller than ``batch_size``.
    Before the first chunk, every training row is checked once, in
    blocks of CHECK_ROWS rows: a NaN or infinite value raises ValueError
    naming its dataset row, so no SGD step runs on a stream that holds
    one.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    rows = np.arange(len(dataset)) if indices is None else np.asarray(indices)
    for lo in range(0, len(rows), CHECK_ROWS):
        block = rows[lo:lo + CHECK_ROWS]
        finite = np.isfinite(dataset.features[block]).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"split 'train' holds non-finite feature values (row "
                f"{block[finite.argmin()]} of dataset {dataset.name!r})")
    order = np.random.default_rng(seed).permutation(len(rows))
    span = max(1, SPAN_ROWS // batch_size) * batch_size
    for lo in range(0, len(order), span):
        chunk = rows[order[lo:lo + span]]
        features, labels = dataset.features[chunk], dataset.labels[chunk]
        for start in range(0, len(chunk), batch_size):
            yield (features[start:start + batch_size],
                   labels[start:start + batch_size])
