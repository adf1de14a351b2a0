"""Dataset loading, protocol splits, and the seeded training stream.

Two on-disk feature carriers are supported (byte layouts in FORMATS.md):

* IDX, the MNIST container: big-endian dims, ubyte payload.  Pixels are
  divided by 255, into [0, 1].
* HCOHFEAT, a minimal dense float32 matrix with a little-endian header,
  for precomputed features of any provenance, other pixel scalings
  included; stored values pass through unchanged.  Labels ride in a bare
  u32 array file, 0xFFFFFFFF standing for the unknown label -1.

Feature and label files ending in .gz are decompressed as they are
read, and a damaged gzip stream raises FormatError naming the file.
An MNIST directory holds the four IDX files named in MNIST_FILES, each
plain or gzipped; ``mnist_candidates`` names both forms of each,
``mnist_paths`` finds them and ``load_mnist_dir`` loads all four into
one Dataset.

A loaded dataset holds one feature matrix, and training and evaluation
index into it instead of copying it.  An IDX set holds float64 (pixels
divided by 255) and an HCOHFEAT set float32, the file's own values; a
Dataset built from an array keeps float32 and float64 as they are and
casts any other dtype to float64.  Every consumer widens float32 to
float64 one block at a time (a step block in ``learner``, an
ENCODE_ROWS block in ``codec.encode``), so no float64 copy of the
matrix is made.  Loading checks every header and label count, and the
size of every plain file, before it allocates that matrix; it then
reads each feature file READ_ROWS rows at a time into one reused buffer
of the file's dtype and copies (for IDX, divides) each block straight
into its rows, so no copy of a whole file is held.  Label payloads, IDX
and u32 alike, are read the same way, as one row of the count a header
fixed.  A gzip file's size is counted as it is read, so one that
inflates past its header is refused without being held either.

The benchmark split takes a seeded per-class sample as the query (test)
set, leaves the remainder as the retrieval database, and draws the
training subset uniformly from the retrieval set (train is a subset
of retrieval, not disjoint from it); ``split_indices`` returns the three
parts as row indices, and only ``split`` copies them into Datasets of
their own.
Training data is then streamed in a seeded random order, single pass,
in batches of a fixed size, as (features, labels) array pairs: each
span of up to ``learner.BLOCK_ROWS`` rows, one training block, is
gathered from the parent dataset by one fancy index and yielded a
batch-sized slice at a time.
"""

import gzip
import math
import os
import struct
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from .fileio import (atomic_write, check_labels, labels_from_u32, labels_to_u32,
                     pack_header, read_header, size_error)
from .learner import BLOCK_ROWS, _float_features

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# The four IDX files of an MNIST directory, each plain or gzipped.
MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
FEAT_MAGIC = b"HCOHFEAT"
FEAT_VERSION = 1
# Feature rows read and cast per block: 256 rows of 784 uint8 pixels are
# a 200 KB read buffer, and of 128 float32 features a 131 KB one.  Larger
# blocks (1,024 to 16,384 rows were measured) load no faster.
READ_ROWS = 256
# Deflate's largest expansion: no gzip file yields more than this many
# bytes per byte of its own size.
DEFLATE_MAX_RATIO = 1032


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float32 or float64 as given, else cast to float64
    labels: np.ndarray    # (n,) int64, each in [0, 0xFFFFFFFF) or -1
    name: str = ""

    def __post_init__(self):
        self.features = np.atleast_2d(_float_features(self.features))
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


def _open(path):
    """A binary read handle on ``path``, decompressing when it ends in .gz."""
    return (gzip.open if str(path).endswith(".gz") else open)(path, "rb")


@contextmanager
def _gzip_errors(path):
    """Turn a damaged gzip stream met inside the ``with`` block into FormatError."""
    try:
        yield
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"{path}: damaged gzip data ({exc})") from exc


def _read(fh, path, size: int = -1) -> bytes:
    """Up to ``size`` bytes of ``fh`` (all that is left when -1)."""
    with _gzip_errors(path):
        return fh.read(size)


def _check_size(fh, path, expected: int, what: str = "") -> None:
    """Reject a file that cannot be ``expected`` bytes long, before allocating.

    A plain file's size must equal it.  A gzip file's size is only known
    once it is read (``_read_rows`` counts it), but deflate expands data
    at most DEFLATE_MAX_RATIO-fold, so a header that declares more than
    that is rejected here as well.
    """
    size = os.fstat(fh.fileno()).st_size
    if not isinstance(fh, gzip.GzipFile):
        if size != expected:
            raise size_error(path, expected, size, what)
    elif expected > DEFLATE_MAX_RATIO * size:
        raise FormatError(
            f"{path}: header declares {expected} bytes{what}, more than "
            f"{size} bytes of gzip data can hold")


def _read_rows(fh, path, out: np.ndarray, dtype, header: int, what: str = "",
               scale: float = None) -> None:
    """Fill ``out`` from the payload of ``fh``, READ_ROWS rows at a time.

    ``fh`` stands just past a ``header``-byte header.  Each block of rows
    is read into one reused buffer of the file's ``dtype`` and cast
    straight into its rows of ``out``, divided by ``scale`` when one is
    given.  Every byte of the file is counted, so a short or an
    over-long file raises FormatError naming both byte counts.
    """
    n, d = out.shape
    buffer = np.empty((min(n, READ_ROWS), d), dtype=dtype)
    raw = buffer.reshape(-1).view(np.uint8)
    expected = header + n * d * buffer.itemsize
    got = header
    with _gzip_errors(path):
        for lo in range(0, n, READ_ROWS):
            rows = out[lo:lo + READ_ROWS]
            block = buffer[:len(rows)]
            filled = 0
            while filled < block.nbytes:
                count = fh.readinto(raw[filled:block.nbytes])
                if not count:
                    raise size_error(path, expected, got + filled, what)
                filled += count
            got += filled
            if scale is None:
                rows[...] = block
            else:
                np.divide(block, scale, out=rows)
        while extra := fh.read(1 << 16):
            got += len(extra)
    if got != expected:
        raise size_error(path, expected, got, what)


def _idx_dims(fh, path, expect_magic: int):
    """(dims, header bytes) of the IDX file ``fh``, which is read past its header."""
    head = _read(fh, path, 4)
    if len(head) < 4:
        raise FormatError(f"{path}: truncated, no magic ({len(head)} bytes)")
    magic = struct.unpack(">I", head)[0]
    if magic != expect_magic:
        raise FormatError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    raw = _read(fh, path, 4 * ndim)
    if len(raw) < 4 * ndim:
        raise FormatError(f"{path}: truncated IDX header")
    return struct.unpack(f">{ndim}I", raw), 4 + 4 * ndim


def _read_labels(fh, path, n: int, dtype, header: int = 0,
                 what: str = "") -> np.ndarray:
    """The ``n`` int64 labels of ``fh``'s payload, 0xFFFFFFFF read as -1.

    The payload is sized and read as a feature payload is, so a file that
    holds more or fewer than ``n`` raises FormatError without being held.
    It is read as one row of ``n`` labels: the read buffer is then the
    declared payload, at most half the size of the labels returned, and
    one read replaces a Python-level loop over blocks of READ_ROWS labels.
    """
    _check_size(fh, path, header + n * np.dtype(dtype).itemsize, what)
    labels = np.empty((1, n), dtype=np.int64)
    _read_rows(fh, path, labels, dtype, header, what)
    return labels_from_u32(labels.reshape(-1))


def _idx_labels(path) -> np.ndarray:
    """The int64 labels of one IDX label file."""
    with _open(path) as fh:
        dims, header = _idx_dims(fh, path, IDX_LABEL_MAGIC)
        return _read_labels(fh, path, math.prod(dims), np.uint8, header,
                            f" for dims {dims}")


def load_idx(image_path, label_path, extra_pairs=()) -> Dataset:
    """Load IDX image/label file pairs into one flat-feature Dataset.

    The rows of each (image, label) pair in ``extra_pairs`` follow those
    of the first pair, in order.  Every header, size and label count is
    checked before the float64 feature matrix is allocated; each image
    file is then read block by block straight into its own rows, its
    pixels divided by 255.
    """
    with ExitStack() as stack:
        images, labels = [], []
        for image_file, label_file in [(image_path, label_path), *extra_pairs]:
            fh = stack.enter_context(_open(image_file))
            dims, header = _idx_dims(fh, image_file, IDX_IMAGE_MAGIC)
            _check_size(fh, image_file, header + math.prod(dims),
                        f" for dims {dims}")
            labels.append(_idx_labels(label_file))
            if dims[0] != len(labels[-1]):
                raise FormatError(
                    f"count mismatch: {dims[0]} images in {image_file} but "
                    f"{len(labels[-1])} labels in {label_file}")
            images.append((fh, image_file, dims, header))
        widths = [math.prod(dims[1:]) for _fh, _path, dims, _header in images]
        if len(set(widths)) > 1:
            raise DimensionError(
                f"image files {[str(image[1]) for image in images]} hold "
                f"{widths} pixels per image; they must agree")
        features = np.empty((sum(map(len, labels)), widths[0]), dtype=np.float64)
        lo = 0
        for fh, image_file, dims, header in images:
            rows = features[lo:lo + dims[0]]
            _read_rows(fh, image_file, rows, np.uint8, header, f" for dims {dims}",
                       scale=255.0)
            lo += dims[0]
    return Dataset(features, np.concatenate(labels), name="idx")


def mnist_candidates(directory) -> list:
    """The (plain, gzipped) paths of each of the MNIST_FILES under ``directory``.

    In the order of MNIST_FILES, whether or not the files exist.
    """
    directory = Path(directory)
    return [(directory / stem, directory / f"{stem}.gz")
            for stem in MNIST_FILES.values()]


def mnist_paths(directory) -> list:
    """The paths of the MNIST_FILES under ``directory``, in their order.

    A file is taken as it is named, or with ``.gz`` appended when only
    that exists.  Raises FileNotFoundError naming the first file missing
    in both forms.
    """
    paths = []
    for plain, gz in mnist_candidates(directory):
        if not (plain.exists() or gz.exists()):
            raise FileNotFoundError(
                f"missing MNIST file {plain.name}(.gz) under {plain.parent}")
        paths.append(plain if plain.exists() else gz)
    return paths


def load_mnist_dir(directory) -> Dataset:
    """All 70K MNIST instances: the train IDX pair's rows, then the test pair's.

    The files are found by :func:`mnist_paths` and read by :func:`load_idx`
    into one float64 feature matrix, each pixel divided by 255.
    """
    train_images, train_labels, *test = mnist_paths(directory)
    dataset = load_idx(train_images, train_labels, extra_pairs=[test])
    dataset.name = "mnist"
    return dataset


def load_dense(feature_path, label_path) -> Dataset:
    """Load an HCOHFEAT matrix and its u32 label file, values as stored.

    The header and file size are checked, and the n labels the header
    declares are read, before the (n, d) float32 matrix is allocated; the
    payload is then read into it block by block.  The values stay
    float32: each consumer widens its own block to float64.  A plain
    label file of another length is a count mismatch; a gzipped one is
    refused by its byte count as it inflates.
    """
    with _open(feature_path) as fh:
        n, d = read_header(_read(fh, feature_path, 17), feature_path,
                           FEAT_MAGIC, FEAT_VERSION)
        _check_size(fh, feature_path, 17 + n * d * 4)
        with _open(label_path) as label_fh:
            count = os.fstat(label_fh.fileno()).st_size // 4
            if not isinstance(label_fh, gzip.GzipFile) and count != n:
                raise FormatError(
                    f"count mismatch: {n} feature rows in {feature_path} but "
                    f"{count} labels in {label_path}")
            labels = _read_labels(label_fh, label_path, n, "<u4")
        features = np.empty((n, d), dtype=np.float32)
        _read_rows(fh, feature_path, features, "<f4", 17)
    return Dataset(features, labels, name="dense")


def save_dense(path, features: np.ndarray) -> None:
    features = np.atleast_2d(np.asarray(features, dtype=np.float32))
    n, d = features.shape
    atomic_write(path, [pack_header(FEAT_MAGIC, FEAT_VERSION, n, d),
                        features.astype("<f4").tobytes()])


def load_labels(path) -> np.ndarray:
    with _open(path) as fh:
        data = _read(fh, path)
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


# Rows gathered per block, in the storage dtype, by stream's finiteness
# check: 1,024 rows of 784 float64 features is a 6.4 MB temporary, and of
# 128 float32 features a 0.5 MB one.
CHECK_ROWS = 1024


def stream(dataset: Dataset, batch_size: int, seed: int, indices=None):
    """Yield (features, labels) chunks of a seeded permutation of training rows.

    The training rows are ``dataset`` rows ``indices``, or every row when
    ``indices`` is None.  They are gathered from ``dataset`` as the stream
    goes, one training block of ``learner.BLOCK_ROWS`` rows (or one
    batch, when a batch is larger) by one fancy index, and each chunk is
    a slice of its span in the dataset's dtype, so no copy of the
    training set is made and float32 rows stay float32 until a step
    widens them.  Single pass: every instance appears exactly once.  The
    final chunk may be smaller than ``batch_size``.
    Before the first chunk, every training row is checked once, in
    blocks of CHECK_ROWS rows gathered in the dataset's dtype (a float32
    value is finite exactly when its float64 widening is): a NaN or
    infinite value raises ValueError naming its dataset row, so no SGD
    step runs on a stream that holds one.
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
    # Whole batches; a span larger than a block only makes the copy larger.
    span = max(1, BLOCK_ROWS // batch_size) * batch_size
    for lo in range(0, len(order), span):
        chunk = rows[order[lo:lo + span]]
        features, labels = dataset.features[chunk], dataset.labels[chunk]
        for start in range(0, len(chunk), batch_size):
            yield (features[start:start + batch_size],
                   labels[start:start + batch_size])
