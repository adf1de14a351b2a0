"""Seeded input generators for the benchmark workloads.

Run as its own process by ``run.py`` so that generation time and memory
are never counted as the program's:

    python3 perfbench/gen.py --kind mnist --seed 7 --out DIR [--n 70000]
    python3 perfbench/gen.py --kind openset --seed 7 --out DIR [--n 50000]

``mnist`` writes the four MNIST IDX files (60k train + 10k test split of
the requested total), which ``hcoh.cli.load_mnist_dir`` reads.  Images
are 28x28 sparse non-negative uint8 drawn from a fixed alphabet: every
class owns a few styles, and a style is a weighted set of strokes drawn
partly (about a third) from one stroke pool shared by all classes and
otherwise from the class's own strokes, so classes overlap the way
digits do: the learned 32-bit codes do not collapse onto a handful of
values, and mAP stays well below 1.

``openset`` writes HCOHFEAT features plus a u32 label file for
``hcoh.load_dense``: Gaussian classes in 128 dimensions with isotropic
noise of standard deviation 0.8, under label ids drawn sparsely from a
large id space, as an open label space would present them.

The same seed always writes the same bytes.
"""

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

SIDE = 28
PIXELS = SIDE * SIDE
N_CLASSES = 10
SHARED_STROKES = 48
PRIVATE_STROKES = 2       # per class
STYLES_PER_CLASS = 4
STROKES_PER_STYLE = 6
SHARED_SHARE = 0.35       # chance a style stroke comes from the shared pool
MNIST_TEST = 10_000
ALPHABET_SEED = 2019

OPENSET_DIM = 128
OPENSET_CLASSES = 1000
OPENSET_SIGMA = 0.8
OPENSET_LABEL_SPACE = 1 << 20


def _stroke(rng) -> np.ndarray:
    """One blurred random-walk pen stroke on the 28x28 grid, peak 1."""
    pts = []
    pos = rng.uniform(7, 21, size=2)
    angle = rng.uniform(0, 2 * np.pi)
    for _ in range(rng.integers(5, 10)):
        pts.append(pos.copy())
        angle += rng.normal(0, 0.5)
        pos = np.clip(pos + 1.6 * np.array([np.cos(angle), np.sin(angle)]), 3, 24)
    pts = np.array(pts)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    d2 = ((yy[None] - pts[:, 0, None, None]) ** 2
          + (xx[None] - pts[:, 1, None, None]) ** 2)
    img = np.exp(-d2 / (2 * 1.1 ** 2)).max(axis=0)
    return img.reshape(PIXELS)


def alphabet():
    """(strokes (n_strokes, 784), styles (classes, styles, n_strokes)).

    The class structure is fixed, like the digits of real MNIST; only the
    instances drawn from it depend on the seed.  Varying it with the seed
    too would add the spread of mAP across alphabets to every metric.
    """
    rng = np.random.default_rng(ALPHABET_SEED)
    shared = np.stack([_stroke(rng) for _ in range(SHARED_STROKES)])
    private = np.stack([_stroke(rng)
                        for _ in range(N_CLASSES * PRIVATE_STROKES)])
    strokes = np.concatenate([shared, private]).astype(np.float32)
    styles = np.zeros((N_CLASSES, STYLES_PER_CLASS, strokes.shape[0]), np.float32)
    for c in range(N_CLASSES):
        for s in range(STYLES_PER_CLASS):
            for _ in range(STROKES_PER_STYLE):
                if rng.random() < SHARED_SHARE:
                    k = rng.integers(SHARED_STROKES)
                else:
                    k = SHARED_STROKES + c * PRIVATE_STROKES + rng.integers(
                        PRIVATE_STROKES)
                styles[c, s, k] = rng.uniform(0.6, 1.0)
    return strokes, styles


def mnist_like(seed: int, n: int):
    """(images uint8 (n, 28, 28), labels uint8 (n,)), balanced classes."""
    strokes, styles = alphabet()
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % N_CLASSES
    rng.shuffle(labels)
    style_idx = rng.integers(STYLES_PER_CLASS, size=n)
    weights = styles[labels, style_idx]
    weights *= rng.random(weights.shape, dtype=np.float32) < 0.85   # stroke dropout
    weights *= rng.uniform(0.7, 1.1, size=(n, 1)).astype(np.float32)
    images = np.minimum(weights @ strokes, 1.0).reshape(n, SIDE, SIDE)

    shifts = rng.integers(-2, 3, size=(n, 2))
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            rows = np.flatnonzero((shifts[:, 0] == dy) & (shifts[:, 1] == dx))
            images[rows] = np.roll(images[rows], (dy, dx), axis=(1, 2))
    images += rng.normal(0, 0.08, size=images.shape).astype(np.float32)
    images[images < 0.15] = 0.0
    pixels = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def _write_idx(path: Path, array: np.ndarray, magic: int) -> None:
    header = struct.pack(f">I{array.ndim}I", magic, *array.shape)
    path.write_bytes(header + np.ascontiguousarray(array, np.uint8).tobytes())


def write_mnist(out: Path, seed: int, n: int) -> None:
    images, labels = mnist_like(seed, n)
    n_test = min(MNIST_TEST, n // 7)
    cut = n - n_test
    _write_idx(out / "train-images-idx3-ubyte", images[:cut], 0x803)
    _write_idx(out / "train-labels-idx1-ubyte", labels[:cut], 0x801)
    _write_idx(out / "t10k-images-idx3-ubyte", images[cut:], 0x803)
    _write_idx(out / "t10k-labels-idx1-ubyte", labels[cut:], 0x801)


def openset(seed: int, n: int, n_classes: int = OPENSET_CLASSES):
    """(features float32 (n, 128), labels uint32 (n,)), balanced classes."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(OPENSET_LABEL_SPACE, size=n_classes, replace=False)
    centers = rng.standard_normal((n_classes, OPENSET_DIM)).astype(np.float32)
    cls = np.arange(n) % n_classes
    rng.shuffle(cls)
    noise = rng.standard_normal((n, OPENSET_DIM), dtype=np.float32)
    features = centers[cls] + np.float32(OPENSET_SIGMA) * noise
    return features, ids[cls].astype(np.uint32)


def write_openset(out: Path, seed: int, n: int, n_classes: int) -> None:
    features, labels = openset(seed, n, n_classes)
    rows, dim = features.shape
    (out / "features.hcohfeat").write_bytes(
        b"HCOHFEAT" + struct.pack("<BII", 1, rows, dim)
        + features.astype("<f4").tobytes())
    (out / "labels.u32").write_bytes(labels.astype("<u4").tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--kind", choices=("mnist", "openset"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--classes", type=int, default=OPENSET_CLASSES)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.kind == "mnist":
        write_mnist(args.out, args.seed, args.n or 70_000)
    else:
        write_openset(args.out, args.seed, args.n or 50_000, args.classes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
