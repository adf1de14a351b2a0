"""Bit-packed binary codes, fast Hamming distance, and code-set files.

Codes are produced by thresholding the linear model at zero:

    bit_j(x) = 1  iff  (W.T x + b)_j >= 0

(the >= makes sign(0) a set bit, matching the +1 convention used for
target codes).  An r-bit code is stored LSB-first in ceil(r/64) uint64
words; unused bits in the last word are always zero, so two codes are
equal exactly when their words are equal.  Hamming distance is XOR plus
popcount over the words, computed in one place, ``_hamming_distances``,
which returns the narrowest unsigned dtype that holds every distance in
[0, r]; numpy's stable argsort is a radix sort on such rows.

Code-set file layout (little-endian throughout):

    8 bytes  magic "HCOHCODE"
    1 byte   version (1)
    u32      n           number of codes
    u32      r           bits per code
    n * ceil(r/64) u64   packed words, instance-major
    n * u32  label ids, 0xFFFFFFFF for unknown (-1 in memory)
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .fileio import (UNKNOWN_LABEL, atomic_write, labels_from_u32,
                     labels_to_u32)
from .learner import HashModel

WORD_BITS = 64
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


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns an (n, length) uint8 array."""
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    as_bytes = words.astype("<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :length]


def _mask_padding(words: np.ndarray, length: int) -> np.ndarray:
    """Zero the bits beyond ``length`` in the last word (canonical form)."""
    tail = length % WORD_BITS
    if tail and words.size:
        words[..., -1] &= np.uint64((1 << tail) - 1)
    return words


@dataclass
class BinaryCode:
    """A single r-bit code: ceil(r/64) uint64 words plus the bit length."""

    words: np.ndarray
    length: int

    def __post_init__(self):
        self.words = _mask_padding(
            np.array(self.words, dtype=np.uint64, ndmin=1), self.length)


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

    def code(self, index: int) -> BinaryCode:
        return BinaryCode(self.words[index].copy(), self.length)

    def take(self, indices: np.ndarray) -> "BinaryCodeSet":
        return BinaryCodeSet(self.words[indices], self.labels[indices],
                             self.length)


def encode(model: HashModel, features: np.ndarray, labels=None) -> BinaryCodeSet:
    """Hash feature rows through the model into a packed code set.

    Labels are carried alongside the codes for retrieval evaluation; pass
    None to fill with -1 when they are unknown.  Raises ValueError if any
    pre-activation W.T x + b is NaN or infinite, as a non-finite feature
    makes every entry of its row; the message names the first such row
    as an index into ``features`` (a whole-dataset row index when
    ``run_training`` hashes at a milestone).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise DimensionError(
            f"features have shape {features.shape}, expected "
            f"(n, {model.feature_dim})")
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        u = features @ model.weights + model.bias
    bad = ~np.isfinite(u).all(axis=1)
    if bad.any():
        raise ValueError(
            f"{bad.sum()} feature rows give a non-finite pre-activation "
            f"(first row {bad.argmax()}); features must be finite")
    bits = (u >= 0).astype(np.uint8)
    if labels is None:
        labels = np.full(features.shape[0], UNKNOWN_LABEL, dtype=np.int64)
    labels = np.atleast_1d(np.asarray(labels))
    return BinaryCodeSet(words=pack_bits(bits), labels=labels,
                         length=model.code_length)


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
    The temporary XOR block is q * n * w words.  The callers check that
    both sides have the same code length, which this does not.
    """
    if queries.shape[1] == 1:
        # bitwise_count of one word is already uint8, and length <= 64.
        return np.bitwise_count(queries ^ database[:, 0])
    xor = queries[:, None, :] ^ database[None, :, :]
    return np.bitwise_count(xor).sum(axis=2, dtype=_distance_dtype(length))


def hamming(a: BinaryCode, b: BinaryCode) -> int:
    """Number of differing bit positions between two equal-length codes."""
    if a.length != b.length:
        raise DimensionError(f"code lengths differ: {a.length} vs {b.length}")
    return int(_hamming_distances(a.words[None], b.words[None], a.length)[0, 0])


def hamming_to_set(query: BinaryCode, database: BinaryCodeSet) -> np.ndarray:
    """Hamming distance from one code to every code in a set.

    Returns uint8 when the code length is below 256 bits, uint16 below
    65,536, else uint32.
    """
    if query.length != database.length:
        raise DimensionError(
            f"code lengths differ: {query.length} vs {database.length}")
    return _hamming_distances(query.words[None], database.words, query.length)[0]


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
    wpc = words_per_code(length)
    expected = 17 + n * wpc * 8 + n * 4
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, got {len(data)}")
    words = np.frombuffer(data, dtype="<u8", count=n * wpc, offset=17)
    labels = np.frombuffer(data, dtype="<u4", count=n, offset=17 + n * wpc * 8)
    return BinaryCodeSet(words=words.reshape(n, wpc).astype(np.uint64),
                         labels=labels_from_u32(labels), length=length)
