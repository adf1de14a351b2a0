"""Bit-packed code sets, their Hamming-distance kernel, and code-set files.

Codes are produced by thresholding the linear model at zero:

    bit_j(x) = 1  iff  (W.T x + b)_j >= 0

(the >= makes sign(0) a set bit, matching the +1 convention used for
target codes).  Codes live only in a :class:`BinaryCodeSet`: row i holds
one r-bit code LSB-first in ceil(r/64) uint64 words, and unused bits in
the last word are always zero, so two codes are equal exactly when their
words are equal.  ``encode`` hashes ENCODE_ROWS rows at a time and packs
each block straight into the code set's words, so its float64
pre-activations never exceed ENCODE_ROWS x r.  Each block is computed
as the (r, rows) product W.T @ X_block.T, with W.T made contiguous once
per call: single-threaded OpenBLAS ran that orientation about a quarter
faster than X_block @ W on 784-wide blocks at r = 32 and 128, with the
same signs.  Hamming distance is XOR plus popcount over the words,
computed in one place, the private ``_hamming_distances``, which adds up
the popcounts one word at a time in the narrowest unsigned dtype that
holds every distance in [0, r]; numpy's stable argsort is a radix sort
on such rows.  Within the package, ``evaluation.rank`` is its one
caller.

Code-set file layout (little-endian throughout):

    8 bytes  magic "HCOHCODE"
    1 byte   version (1)
    u32      n           number of codes
    u32      r           bits per code, at least 1
    n * ceil(r/64) u64   packed words, instance-major
    n * u32  label ids, 0xFFFFFFFF for unknown (-1 in memory)
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .fileio import (UNKNOWN_LABEL, atomic_write, labels_from_u32,
                     labels_to_u32)
from .learner import HashModel, _checked_features

WORD_BITS = 64
ENCODE_ROWS = 4096  # rows per hashing block: 4 MiB of float64 at r = 128
CODE_MAGIC = b"HCOHCODE"
CODE_VERSION = 1


def words_per_code(length: int) -> int:
    return (length + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, r) array of {0,1} into (n, ceil(r/64)) uint64 words."""
    bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
    n, r = bits.shape
    padded = np.zeros((n, words_per_code(r) * WORD_BITS), dtype=np.uint8)
    padded[:, :r] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


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
    blocks of ENCODE_ROWS.  Raises ValueError if any pre-activation
    W.T x + b is NaN or infinite, as a non-finite feature makes every
    entry of its row; the message counts such rows over all blocks and
    names the first as an index into ``features`` (a whole-dataset row
    index when ``run_training`` hashes at a milestone).
    """
    features = _checked_features(model, features)
    words = np.empty((features.shape[0], words_per_code(model.code_length)),
                     dtype=np.uint64)
    weights_t = np.ascontiguousarray(model.weights.T)
    bias = model.bias[:, None]
    n_bad, first_bad = 0, None
    for lo in range(0, features.shape[0], ENCODE_ROWS):
        with np.errstate(invalid="ignore", over="ignore"):  # checked below
            u = weights_t @ features[lo:lo + ENCODE_ROWS].T   # (r, rows)
            u += bias
        bad = ~np.isfinite(u).all(axis=0)
        if bad.any():
            if first_bad is None:
                first_bad = lo + int(bad.argmax())
            n_bad += int(bad.sum())
        words[lo:lo + u.shape[1]] = pack_bits((u >= 0).T)
    if n_bad:
        raise ValueError(
            f"{n_bad} feature rows give a non-finite pre-activation "
            f"(first row {first_bad}); features must be finite")
    if labels is None:
        labels = np.full(features.shape[0], UNKNOWN_LABEL, dtype=np.int64)
    labels = np.atleast_1d(np.asarray(labels))
    return BinaryCodeSet(words=words, labels=labels, length=model.code_length)


def _distance_dtype(length: int):
    """Narrowest unsigned integer dtype that holds every distance in [0, length]."""
    for dtype in (np.uint8, np.uint16):
        if length <= np.iinfo(dtype).max:
            return dtype
    return np.uint32


def _hamming_distances(queries: np.ndarray, database: np.ndarray,
                       length: int) -> np.ndarray:
    """Hamming distance between every query code and every database code.

    ``queries`` (q, w) and ``database`` (n, w) hold packed ``length``-bit
    codes as in :class:`BinaryCodeSet`.  Returns a (q, n) array of uint8
    when ``length`` < 256, uint16 when ``length`` < 65,536, else uint32.
    The popcounts are added one word at a time, so the temporary XOR
    block is q * n words whatever w is.  The caller, ``evaluation.rank``,
    checks that both sides have the same code length, which this does
    not.
    """
    # bitwise_count of one word is uint8, already the dtype when w == 1.
    distances = np.bitwise_count(queries[:, :1] ^ database[:, 0]).astype(
        _distance_dtype(length), copy=False)
    for k in range(1, queries.shape[1]):
        distances += np.bitwise_count(queries[:, k, None] ^ database[:, k])
    return distances


def save_code_set(path, code_set: BinaryCodeSet) -> None:
    """Write a code set atomically; unknown labels (-1) are stored as 0xFFFFFFFF.

    Raises FormatError for any other label outside [0, 0xFFFFFFFF).
    """
    labels = labels_to_u32(code_set.labels, path)
    header = CODE_MAGIC + struct.pack("<BII", CODE_VERSION, len(code_set),
                                      code_set.length)
    atomic_write(path, [header, code_set.words.astype("<u8").tobytes(),
                        labels.tobytes()])


def load_code_set(path) -> BinaryCodeSet:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CODE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:8]!r}, expected {CODE_MAGIC!r}")
    if len(data) < 17:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    version, n, length = struct.unpack_from("<BII", data, 8)
    if version != CODE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if length < 1:
        raise FormatError(f"{path}: code length {length}, expected at least 1")
    wpc = words_per_code(length)
    expected = 17 + n * wpc * 8 + n * 4
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, got {len(data)}")
    words = np.frombuffer(data, dtype="<u8", count=n * wpc, offset=17)
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=17 + n * wpc * 8)
    return BinaryCodeSet(words=words.reshape(n, wpc).astype(np.uint64),
                         labels=labels_from_u32(labels), length=length)
