"""Binary checkpoints bundling the model, codebook state, and reducer.

Layout, all little-endian, in order:

    4 bytes  magic "HCOH"
    u8       version (1)
    u32 u32  d, r
    f64      eta
    u64      round
    d*r f64  W, row-major
    r   f64  b
    u32      codebook order
    u64      codebook seed
    u32      number of assigned labels, then that many (u32 label, u32 column),
             label 0xFFFFFFFF for the unknown label -1
    u32 u32  reducer in_dim, out_dim
    u64      reducer seed
    u8       reducer identity flag

Neither the codebook matrix nor the reducer's target table is stored.
The codebook is rebuilt from (order, seed); its seed fixes the column
draw order, and ``HadamardCodebook.restore`` accepts the recorded
assignment only if it holds exactly the first k draws.  W and b must be
finite, so a file cannot hand training or encoding a NaN or infinite
parameter.  The reducer is restored as (dims, seed): its target table
is regenerated from them only when first read, so loading a checkpoint
to encode builds none.
This keeps checkpoints small and loads deterministic.  Writes go to a
temp file followed by an atomic rename, so a crashed run never leaves a
partial checkpoint behind.
"""

import struct

import numpy as np

from .errors import FormatError
from .fileio import atomic_write, labels_from_u32, labels_to_u32
from .hadamard import HadamardCodebook
from .learner import HashModel
from .lsh import LshReducer

MAGIC = b"HCOH"
VERSION = 1


def save_checkpoint(path, model: HashModel, book: HadamardCodebook,
                    reducer: LshReducer) -> None:
    """Write a checkpoint atomically.

    Raises FormatError for an assigned label that a u32 cannot hold:
    anything outside [0, 0xFFFFFFFF) other than the unknown label -1.
    """
    d, r = model.feature_dim, model.code_length
    labels = sorted(book.assignment)
    pairs = np.column_stack([
        labels_to_u32(labels, path),
        np.array([book.assignment[label] for label in labels], dtype="<u4")])
    parts = [
        MAGIC,
        struct.pack("<BII", VERSION, d, r),
        struct.pack("<d", model.eta),
        struct.pack("<Q", model.round),
        model.weights.astype("<f8").tobytes(),
        model.bias.astype("<f8").tobytes(),
        struct.pack("<IQ", book.order, book.seed),
        struct.pack("<I", len(labels)),
        pairs.tobytes(),
        struct.pack("<IIQB", reducer.in_dim, reducer.out_dim, reducer.seed,
                    1 if reducer.is_identity else 0),
    ]
    atomic_write(path, parts)


def load_checkpoint(path):
    """Read a checkpoint; returns (model, codebook, reducer)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 29:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    version, d, r = struct.unpack_from("<BII", data, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    off = 13
    eta, = struct.unpack_from("<d", data, off); off += 8
    rnd, = struct.unpack_from("<Q", data, off); off += 8
    need = off + (d * r + r) * 8 + 16
    if len(data) < need:
        raise FormatError(f"{path}: expected at least {need} bytes, got {len(data)}")
    weights = np.frombuffer(data, dtype="<f8", count=d * r, offset=off)
    off += d * r * 8
    bias = np.frombuffer(data, dtype="<f8", count=r, offset=off)
    off += r * 8
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise FormatError(f"{path}: non-finite weights or bias")
    order, book_seed = struct.unpack_from("<IQ", data, off); off += 12
    n_assigned, = struct.unpack_from("<I", data, off); off += 4
    need = off + n_assigned * 8 + 17
    if len(data) != need:
        raise FormatError(f"{path}: expected {need} bytes, got {len(data)}")
    pairs = np.frombuffer(data, dtype="<u4", count=2 * n_assigned,
                          offset=off).reshape(n_assigned, 2)
    off += n_assigned * 8
    assignment = dict(zip(labels_from_u32(pairs[:, 0]).tolist(),
                          pairs[:, 1].tolist()))
    in_dim, out_dim, red_seed, identity = struct.unpack_from("<IIQB", data, off)

    model = HashModel(weights=weights.reshape(d, r).astype(np.float64),
                      bias=bias.astype(np.float64), eta=eta, round=rnd)
    book = HadamardCodebook.restore(order, book_seed, assignment)
    if (in_dim == out_dim) != bool(identity):
        raise FormatError(
            f"{path}: identity flag {identity} inconsistent with dims "
            f"{in_dim}x{out_dim}")
    if in_dim != order or out_dim != r:
        raise FormatError(
            f"{path}: reducer dims {in_dim}x{out_dim} inconsistent with "
            f"order {order} and code length {r}")
    return model, book, LshReducer.create(in_dim, out_dim, red_seed)
