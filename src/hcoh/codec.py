"""Bit-packed code sets, their Hamming-distance kernel, and code-set files.

Codes are produced by thresholding the linear model at zero:

    bit_j(x) = 1  iff  (W.T x + b)_j >= 0

(the >= makes sign(0) a set bit, matching the +1 convention used for
target codes).  Codes live only in a :class:`BinaryCodeSet`: row i holds
one r-bit code LSB-first in ceil(r/64) uint64 words, and unused bits in
the last word are always zero, so two codes are equal exactly when their
words are equal.  ``encode`` hashes ENCODE_ROWS rows at a time and packs
each block's signs straight into the code set's words.  Each block is
computed as the (r, rows) product W.T @ X_block.T, with W.T made
contiguous once per call: single-threaded OpenBLAS ran that orientation
about a quarter faster than X_block @ W on 784-wide blocks at r = 32 and
128, with the same signs.  The blocks run on ``_parallel.pool_threads()``
threads: ``ThreadPoolExecutor.map`` over one worker per usable CPU when
the BLAS runs each product on one thread, and a plain loop on the
calling thread when the BLAS already spreads each product over the CPUs.
Either way the calling thread collects the non-finite rows each block
reports, in block order.  Each running block borrows one of the
float64 buffers that the calling thread allocated, one per thread, from
a queue and gives it back when it ends, raising or not.  A buffer holds
the block's ENCODE_ROWS x r pre-activations and, when the rows are
float32 (a dense dataset's storage), the block's rows widened to
float64, so no float64 copy of the whole matrix is made; no more
threads run than ENCODE_BYTES of such buffers allow, whatever the CPU
count.  The workers call only private code, so a wrapper around the
public functions, such as a span tracer with one stack, never sees two
threads.  The block bounds do not depend on the
thread count, so each block is the same single GEMM call and the words
are the same bytes on any number of CPUs.  Hamming
distance is XOR plus popcount over the words, computed in one place,
the private ``_hamming_distances``, which adds up the popcounts one word
at a time in the narrowest unsigned dtype that holds every distance in
[0, r], through one n-word XOR row per query; numpy's stable argsort is
a radix sort on such rows.  Within the package, ``evaluation.rank`` and
``evaluation.evaluate`` call it.

Code-set file layout (little-endian throughout):

    8 bytes  magic "HCOHCODE"
    1 byte   version (1)
    u32      n           number of codes
    u32      r           bits per code, at least 1
    n * ceil(r/64) u64   packed words, instance-major
    n * u32  label ids, 0xFFFFFFFF for unknown (-1 in memory)
"""

import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._parallel import pool_threads
from .errors import DimensionError, FormatError, NumericFailureError
from .fileio import (UNKNOWN_LABEL, atomic_write, labels_from_u32,
                     labels_to_u32, pack_header, read_header, size_error)
from .learner import HashModel, _checked_features

WORD_BITS = 64
ENCODE_ROWS = 4096  # rows per hashing block: 4 MiB of float64 at r = 128
# Bytes of float64 buffers that encode's threads hold at once, each
# thread 8 * ENCODE_ROWS * r bytes of pre-activations, plus 8 *
# ENCODE_ROWS * d of widened rows when the rows are float32: for float64
# rows four threads at r = 128 and sixteen at r = 32, for float32 rows
# of d = 128 two threads at r = 64.
ENCODE_BYTES = 16 * 2**20
CODE_MAGIC = b"HCOHCODE"
CODE_VERSION = 1


def words_per_code(length: int) -> int:
    return (length + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, r) array of {0,1} into (n, ceil(r/64)) uint64 words."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    words = np.empty((bits.shape[0], words_per_code(bits.shape[1])),
                     dtype=np.uint64)
    _pack_into(bits, words)
    return words


def _pack_into(bits: np.ndarray, out: np.ndarray) -> None:
    """Pack (n, r) {0,1} or bool ``bits`` into the (n, ceil(r/64)) words ``out``."""
    padded = np.zeros((bits.shape[0], out.shape[1] * WORD_BITS), dtype=np.uint8)
    padded[:, :bits.shape[1]] = bits
    out[...] = np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _mask_padding(words: np.ndarray, length: int) -> np.ndarray:
    """Zero the bits beyond ``length`` in the last word (canonical form)."""
    tail = length % WORD_BITS
    if tail and words.size:
        words[..., -1] &= np.uint64((1 << tail) - 1)
    return words


@dataclass
class BinaryCodeSet:
    """n equal-length codes with their labels, packed row-per-instance.

    Padding bits are masked at construction, so code equality is word
    equality.
    """

    words: np.ndarray   # (n, ceil(length/64)) uint64
    labels: np.ndarray  # (n,) int64, -1 for unknown
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise DimensionError(
                f"code length must be at least 1, got {self.length}")
        self.words = _mask_padding(
            np.array(self.words, dtype=np.uint64, ndmin=2), self.length)
        self.labels = np.atleast_1d(np.asarray(self.labels, dtype=np.int64))
        if self.words.shape[0] != self.labels.shape[0]:
            raise DimensionError(
                f"{self.words.shape[0]} codes but {self.labels.shape[0]} labels")
        if self.words.shape[1] != words_per_code(self.length):
            raise DimensionError(
                f"{self.words.shape[1]} words per code, expected "
                f"{words_per_code(self.length)} for length {self.length}")

    def __len__(self) -> int:
        return self.words.shape[0]

    def take(self, indices: np.ndarray) -> "BinaryCodeSet":
        return BinaryCodeSet(self.words[indices], self.labels[indices],
                             self.length)


def encode(model: HashModel, features: np.ndarray, labels=None) -> BinaryCodeSet:
    """Hash feature rows through the model into a packed code set.

    Labels are carried alongside the codes for retrieval evaluation; pass
    None to fill with -1 when they are unknown.  Rows are hashed in
    blocks of ENCODE_ROWS on ``pool_threads()`` threads; float32 rows are
    widened to float64 a block at a time, and rows of any dtype but
    float32 and float64 are cast to float64 first.  When any
    pre-activation W.T x + b is NaN or infinite, the error counts such
    rows over all blocks and names the first as an index into
    ``features`` (a whole-dataset row index when ``run_training`` hashes
    at a milestone).  The first such row decides which error: a
    non-finite feature there, which makes every entry of its row
    non-finite, raises ValueError; finite features there mean W overflowed
    the product, and raise NumericFailureError.
    """
    features = _checked_features(model, features)
    (n, d), r = features.shape, model.code_length
    words = np.empty((n, words_per_code(r)), dtype=np.uint64)
    weights_t = np.ascontiguousarray(model.weights.T)
    starts = range(0, n, ENCODE_ROWS)
    # float64 values per row that a block holds: its pre-activations, and
    # for float32 rows the block widened to float64.
    width = r if features.dtype == np.float64 else r + d
    threads = min(pool_threads(), len(starts),
                  max(1, ENCODE_BYTES // (8 * width * ENCODE_ROWS)))
    buffers = queue.SimpleQueue()
    for _ in range(threads):
        buffers.put(np.empty(width * min(n, ENCODE_ROWS)))

    def hash_block(lo):
        rows = features[lo:lo + ENCODE_ROWS]
        m = rows.shape[0]
        buffer = buffers.get()  # never waits: at most `threads` blocks run
        try:
            u = buffer[:r * m].reshape(r, m)
            if width > r:
                wide = buffer[r * m:width * m].reshape(m, d)
                wide[...] = rows
                rows = wide
            with np.errstate(invalid="ignore", over="ignore"):  # checked below
                np.matmul(weights_t, rows.T, out=u)
                u += model.bias[:, None]
            _pack_into((u >= 0).T, words[lo:lo + m])
            return np.flatnonzero(~np.isfinite(u).all(axis=0)) + lo
        finally:
            # A block that raised would otherwise keep its buffer, and the
            # blocks after it would wait for one forever.
            buffers.put(buffer)

    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            blocks = list(pool.map(hash_block, starts))
    else:
        blocks = [hash_block(lo) for lo in starts]
    bad = [row for rows in blocks for row in rows]
    if bad:
        if np.isfinite(features[bad[0]]).all():
            raise NumericFailureError(
                f"the model's weights overflow: {len(bad)} feature rows give a "
                f"non-finite pre-activation (first row {bad[0]}, which is finite)")
        raise ValueError(
            f"{len(bad)} feature rows give a non-finite pre-activation "
            f"(first row {bad[0]}); features must be finite")
    if labels is None:
        labels = np.full(n, UNKNOWN_LABEL, dtype=np.int64)
    labels = np.atleast_1d(np.asarray(labels))
    return BinaryCodeSet(words=words, labels=labels, length=r)


def _distance_dtype(length: int):
    """Narrowest unsigned integer dtype that holds every distance in [0, length]."""
    for dtype in (np.uint8, np.uint16):
        if length <= np.iinfo(dtype).max:
            return dtype
    return np.uint32


def _hamming_distances(queries: np.ndarray, database: np.ndarray,
                       length: int, out: np.ndarray = None) -> np.ndarray:
    """Hamming distance between every query code and every database code.

    ``queries`` (q, w) and ``database`` (n, w) hold packed ``length``-bit
    codes as in :class:`BinaryCodeSet`.  Returns a (q, n) array of uint8
    when ``length`` < 256, uint16 when ``length`` < 65,536, else uint32;
    pass that array as ``out`` to have it written there instead.  Each
    query's popcounts are added one word at a time through one n-word
    XOR row, so the only temporary is n words whatever q and w are.
    The callers in ``evaluation`` check that both sides have the same
    code length, which this does not.
    """
    if out is None:
        out = np.empty((queries.shape[0], database.shape[0]),
                       dtype=_distance_dtype(length))
    xor = np.empty(database.shape[0], dtype=np.uint64)
    for row, code in zip(out, queries):
        np.bitwise_count(np.bitwise_xor(code[0], database[:, 0], out=xor), out=row)
        for k in range(1, len(code)):
            np.bitwise_xor(code[k], database[:, k], out=xor)
            row += np.bitwise_count(xor, out=xor)
    return out


def save_code_set(path, code_set: BinaryCodeSet) -> None:
    """Write a code set atomically; unknown labels (-1) are stored as 0xFFFFFFFF.

    Raises FormatError for any other label outside [0, 0xFFFFFFFF).
    """
    labels = labels_to_u32(code_set.labels, path)
    atomic_write(path, [
        pack_header(CODE_MAGIC, CODE_VERSION, len(code_set), code_set.length),
        code_set.words.astype("<u8").tobytes(), labels.tobytes()])


def load_code_set(path) -> BinaryCodeSet:
    data = Path(path).read_bytes()
    n, length = read_header(data, path, CODE_MAGIC, CODE_VERSION)
    if length < 1:
        raise FormatError(f"{path}: code length {length}, expected at least 1")
    wpc = words_per_code(length)
    expected = 17 + n * wpc * 8 + n * 4
    if len(data) != expected:
        raise size_error(path, expected, len(data))
    words = np.frombuffer(data, dtype="<u8", count=n * wpc, offset=17)
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=17 + n * wpc * 8)
    return BinaryCodeSet(words=words.reshape(n, wpc).astype(np.uint64),
                         labels=labels_from_u32(labels), length=length)
