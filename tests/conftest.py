import os
from pathlib import Path

import numpy as np
import pytest

from hcoh import Dataset, NumericFailureError

REPO_ROOT = Path(__file__).resolve().parent.parent

MNIST_STEMS = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def mnist_dir():
    """Directory holding the four MNIST IDX files, or None.

    Looked up from $HCOH_MNIST_DIR, falling back to <repo>/data/mnist.
    Files may be gzipped.
    """
    directory = Path(os.environ.get("HCOH_MNIST_DIR", REPO_ROOT / "data" / "mnist"))
    for stem in MNIST_STEMS:
        if not ((directory / stem).exists() or (directory / f"{stem}.gz").exists()):
            return None
    return directory


def require_mnist():
    directory = mnist_dir()
    if directory is None:
        pytest.skip(
            "MNIST IDX files not found; place the four ubyte files (optionally "
            "gzipped) under data/mnist or point HCOH_MNIST_DIR at them")
    return directory


def blob_dataset(n_classes=4, dim=16, per_class=600, spread=5.0, noise=1.0,
                 seed=7, name="blobs"):
    """Well-separated Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_classes, dim)) * spread
    features = np.vstack(
        [c + noise * rng.standard_normal((per_class, dim)) for c in centers])
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(features, labels, name)


@pytest.fixture
def blobs():
    return blob_dataset()


def sparse_pixel_dataset(n_classes=4, side=28, per_class=300, seed=13,
                         name="sparse-pixels"):
    """MNIST-shaped rows: side*side pixels, about 82% zeros, values k/255.

    Each class has a fixed fifth of the pixels; a row lights each of its
    class's pixels with probability 0.3 and each other pixel with 0.15,
    so the classes overlap and mAP still climbs over a 1,000-row stream.
    """
    rng = np.random.default_rng(seed)
    dim = side * side
    masks = rng.random((n_classes, dim)) < 0.2
    labels = np.repeat(np.arange(n_classes), per_class)
    lit = np.where(masks[labels], rng.random((len(labels), dim)) < 0.3,
                   rng.random((len(labels), dim)) < 0.15)
    pixels = rng.integers(1, 256, size=lit.shape) * lit
    return Dataset(pixels / 255.0, labels, name)


@pytest.fixture
def sparse_pixels():
    return sparse_pixel_dataset()


def dense_sgd_step(model, features, targets, gradient="exact"):
    """One dense step W - eta*((2/n)*(x.T @ e)), restated as the per-step oracle.

    Same in-place effect as ``hcoh.sgd_step`` with ``step_rows=None``:
    one step over every row, which updates and checks every entry of W.
    """
    features = np.asarray(features, dtype=np.float64)
    a = np.tanh(features @ model.weights + model.bias)
    factor = 1.0 - a * a if gradient == "exact" else (1.0 - a) * a
    err = (a - targets) * factor
    n = features.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        model.weights -= model.eta * ((2.0 / n) * (features.T @ err))
        model.bias -= model.eta * ((2.0 / n) * err.sum(axis=0))
    model.round += 1
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise NumericFailureError("non-finite parameters",
                                  round_index=model.round)
    return model


def per_step_sgd(model, features, targets, gradient="exact", step_rows=None):
    """``hcoh.sgd_step``'s signature, run as a loop of :func:`dense_sgd_step`."""
    n = len(features) if step_rows is None else step_rows
    for lo in range(0, len(features), n):
        dense_sgd_step(model, features[lo:lo + n], targets[lo:lo + n], gradient)
    return model


def relative_error(value, reference, start):
    """|value - reference| relative to how far the reference moved from start."""
    return np.linalg.norm(value - reference) / np.linalg.norm(reference - start)


def sylvester(order):
    """Dense (order, order) int8 Sylvester matrix by the np.block recursion."""
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def sylvester_columns(order, columns):
    """Sylvester columns as int8 rows: (-1)**popcount(i & j) over i.

    A single index j gives the (order,) column; an array of k indices
    gives their (k, order) stack.
    """
    j = np.asarray(columns, dtype=np.uint32)[..., None]
    parity = np.bitwise_count(np.arange(order, dtype=np.uint32) & j) & 1
    return 1 - 2 * parity.astype(np.int8)


def gaussian_projection(reducer):
    """The (in_dim, out_dim) N(0, 1) matrix P that ``reducer``'s seed draws."""
    return np.random.default_rng(reducer.seed).standard_normal(
        (reducer.in_dim, reducer.out_dim))


def sign_pm1(values):
    """Elementwise sign into {-1,+1} as int8, with sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def unpack_bits(words, length):
    """Inverse of ``hcoh.pack_bits``: an (n, length) uint8 array of bits."""
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")
    return bits[:, :length]


def per_label_targets(labels, book, reducer, codes):
    """Target rows of ``labels`` resolved one label at a time.

    The reference for ``lsh.targets``: a label missing from the dict
    ``codes`` takes its codebook column, computed from the popcount
    form, and is reduced on its own as sign(column @ P) (or kept as is
    for the identity reducer), so CodebookExhaustedError leaves ``book``
    and ``codes`` holding exactly the labels before the failing one.
    """
    projection = None
    rows = []
    for label in labels:
        label = int(label)
        if label not in codes:
            column = sylvester_columns(book.order, book.assign_label(label))
            if reducer.is_identity:
                codes[label] = column
            else:
                if projection is None:
                    projection = gaussian_projection(reducer)
                codes[label] = sign_pm1(column @ projection)
        rows.append(codes[label])
    return np.array(rows, dtype=np.float64).reshape(len(rows), reducer.out_dim)
