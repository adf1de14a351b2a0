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
             each label once, label 0xFFFFFFFF for the unknown label -1
    u32 u32  reducer in_dim, out_dim
    u64      reducer seed
    u8       reducer identity flag

Neither the codebook matrix nor the reducer's target table is stored.
The codebook is rebuilt from (order, seed); its seed fixes the column
draw order, and ``HadamardCodebook.restore`` accepts the recorded
assignment only if it holds exactly the first k draws.  d and r are at
least 1, eta is positive and finite, and W and b must be finite, so a
file cannot hand training or encoding an empty model or a NaN or
infinite parameter.  Order, r and the reducer seed determine the
reducer, so its record must read (order, r, seed, 1 if order == r else
0); it is rebuilt by ``LshReducer.create(order, r, seed)``, whose target
table is generated only when first read, so loading a checkpoint to
encode builds none.
Every rejection names the file.
This keeps checkpoints small and loads deterministic.

One parser holds all of these rules.  ``save_checkpoint`` packs the
file's bytes and parses them with it before writing, so every file it
writes loads, and a state the loader would refuse fails at save with
the loader's error and writes nothing.  Writes go to a temp file
followed by an atomic rename, so a crashed run never leaves a partial
checkpoint behind.
"""

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidOrderError
from .fileio import (atomic_write, labels_from_u32, labels_to_u32, pack_header,
                     read_header, size_error)
from .hadamard import HadamardCodebook
from .learner import HashModel
from .lsh import LshReducer

MAGIC = b"HCOH"
VERSION = 1


def save_checkpoint(path, model: HashModel, book: HadamardCodebook,
                    reducer: LshReducer) -> None:
    """Write a checkpoint atomically, and only one that ``load_checkpoint`` reads.

    The file's bytes are packed in full and parsed by the loader's own
    code before anything is written, so a state the loader would refuse
    raises the loader's error, naming ``path``, and no file is written.
    Packing raises FormatError first for an assigned label that a u32
    cannot hold: anything outside [0, 0xFFFFFFFF) other than the unknown
    label -1; and for a count, the model's round or a seed that is not
    an integer in the range of its u32 or u64 field, such as a negative
    round or a codebook seed of -1.
    """
    labels = sorted(book.assignment)
    pairs = np.column_stack([
        labels_to_u32(labels, path),
        np.array([book.assignment[label] for label in labels], dtype="<u4")])
    try:
        data = b"".join([
            pack_header(MAGIC, VERSION, model.feature_dim, model.code_length),
            struct.pack("<dQ", model.eta, model.round),
            model.weights.astype("<f8").tobytes(),
            model.bias.astype("<f8").tobytes(),
            struct.pack("<IQI", book.order, book.seed, len(labels)),
            pairs.tobytes(),
            struct.pack("<IIQB", reducer.in_dim, reducer.out_dim, reducer.seed,
                        1 if reducer.is_identity else 0),
        ])
    except struct.error as err:
        raise FormatError(f"{path}: a count, round or seed does not fit the "
                          f"file's unsigned integers ({err})") from None
    _parse(data, path)
    atomic_write(path, [data])


def load_checkpoint(path):
    """Read a checkpoint; returns (model, codebook, reducer)."""
    return _parse(Path(path).read_bytes(), path)


def _parse(data: bytes, path):
    """(model, codebook, reducer) of checkpoint bytes ``data``, or the error.

    Every rejection is a FormatError or InvalidOrderError naming ``path``.
    """
    d, r = read_header(data, path, MAGIC, VERSION)
    if d < 1 or r < 1:
        raise FormatError(f"{path}: feature dimension {d} and code length {r} "
                          f"must both be positive")
    off = 29 + (d * r + r) * 8  # past eta, round, W and b
    if len(data) < off + 16:
        raise FormatError(
            f"{path}: expected at least {off + 16} bytes, got {len(data)}")
    eta, rnd = struct.unpack_from("<dQ", data, 13)
    if not (eta > 0 and math.isfinite(eta)):
        raise FormatError(f"{path}: learning rate {eta} is not positive and finite")
    params = np.frombuffer(data, dtype="<f8", count=d * r + r, offset=29)
    if not np.isfinite(params).all():
        raise FormatError(f"{path}: non-finite weights or bias")
    order, book_seed, n_assigned = struct.unpack_from("<IQI", data, off)
    need = off + 16 + n_assigned * 8 + 17
    if len(data) != need:
        raise size_error(path, need, len(data))
    pairs = np.frombuffer(data, dtype="<u4", count=2 * n_assigned,
                          offset=off + 16).reshape(n_assigned, 2)
    labels = labels_from_u32(pairs[:, 0])
    assignment = dict(zip(labels.tolist(), pairs[:, 1].tolist()))
    if len(assignment) < n_assigned:
        values, counts = np.unique(labels, return_counts=True)
        raise FormatError(
            f"{path}: label {values[counts > 1][0]} is assigned more than once")
    in_dim, out_dim, red_seed, identity = struct.unpack_from("<IIQB", data,
                                                              need - 17)
    if (in_dim, out_dim, identity) != (order, r, int(order == r)):
        raise FormatError(
            f"{path}: reducer record {in_dim}x{out_dim}, identity flag "
            f"{identity}, does not match order {order} and code length {r}")
    model = HashModel(weights=params[:d * r].reshape(d, r).astype(np.float64),
                      bias=params[d * r:].astype(np.float64), eta=eta, round=rnd)
    try:
        reducer = LshReducer.create(order, r, red_seed)
        book = HadamardCodebook.restore(order, book_seed, assignment)
    except InvalidOrderError as err:
        raise InvalidOrderError(f"{path}: {err}") from err
    return model, book, reducer
