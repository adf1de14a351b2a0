"""What the file formats share: the header, the atomic write, the u32 label ids.

Checkpoints, HCOHCODE code sets and HCOHFEAT feature files all start
with one header: a magic string, a u8 version and two little-endian
u32 counts.  :func:`pack_header` writes it and :func:`read_header`
checks it, so a wrong magic, a header cut short or another version is
the same FormatError for all three; :func:`size_error` is the one
"expected N bytes, got M" error for a file of the wrong length.

Every file the package writes goes through :func:`atomic_write`, so a
reader never sees a partial file and a failed write leaves nothing
behind.  Label ids are stored as little-endian u32 in code-set files,
checkpoints and label files alike.  The top value 0xFFFFFFFF is reserved
for "unknown" and reads back as -1; any other id outside
[0, 0xFFFFFFFF) cannot be stored and is rejected instead of wrapped.
A ``Dataset`` checks its labels by the same rule when it is built, so an
id that no file can hold fails before any training.
"""

import os
import struct

import numpy as np

from .errors import FormatError

UNKNOWN_LABEL = -1
UNKNOWN_LABEL_U32 = 0xFFFFFFFF


def atomic_write(path, chunks) -> None:
    """Write the byte strings of ``chunks``, in order, as the file ``path``.

    The bytes go to a temp file beside the target, which is then renamed
    over it.  If anything raises before the rename, including the
    iteration of ``chunks``, the temp file is removed and the target is
    left as it was; the error raised is the write's own, not one from
    removing a temp file that could not be made.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def pack_header(magic: bytes, version: int, first: int, second: int) -> bytes:
    """The common header: ``magic``, u8 ``version``, u32 ``first`` and ``second``."""
    return magic + struct.pack("<BII", version, first, second)


def read_header(data: bytes, path, magic: bytes, version: int):
    """The two u32 counts of the common header at the start of ``data``.

    ``data`` holds at least the header's bytes when the file has them.
    Raises FormatError, naming ``path``, when ``data`` does not start
    with ``magic``, is shorter than the header, or holds a version other
    than ``version``.
    """
    if data[:len(magic)] != magic:
        raise FormatError(
            f"{path}: bad magic {data[:len(magic)]!r}, expected {magic!r}")
    if len(data) < len(magic) + 9:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    found, first, second = struct.unpack_from("<BII", data, len(magic))
    if found != version:
        raise FormatError(f"{path}: unsupported version {found}")
    return first, second


def size_error(path, expected: int, got: int, what: str = "") -> FormatError:
    """The error for a file of ``got`` bytes that should hold ``expected``."""
    return FormatError(f"{path}: expected {expected} bytes{what}, got {got}")


def check_labels(labels, where) -> np.ndarray:
    """Label ids as an int64 array, each one checked to fit a u32 id.

    Raises FormatError, naming ``where``, for any id outside
    [0, 0xFFFFFFFF) other than the unknown label -1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    bad = (labels < UNKNOWN_LABEL) | (labels >= UNKNOWN_LABEL_U32)
    if bad.any():
        raise FormatError(
            f"{where}: label {int(labels[bad][0])} cannot be stored; ids must "
            f"lie in [0, {UNKNOWN_LABEL_U32}) or be {UNKNOWN_LABEL} (unknown)")
    return labels


def labels_to_u32(labels, path) -> np.ndarray:
    """Label ids as a little-endian u32 array, -1 stored as 0xFFFFFFFF.

    Raises FormatError as :func:`check_labels` does.
    """
    return check_labels(labels, path).astype("<u4")


def labels_from_u32(raw: np.ndarray) -> np.ndarray:
    """Inverse of :func:`labels_to_u32`: int64 ids, 0xFFFFFFFF read as -1.

    An int64 ``raw`` is mapped in place and returned, not copied.
    """
    labels = raw.astype(np.int64, copy=False)
    labels[labels == UNKNOWN_LABEL_U32] = UNKNOWN_LABEL
    return labels
