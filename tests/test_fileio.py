import numpy as np
import pytest

from hcoh import (BinaryCodeSet, FormatError, HadamardCodebook, LshReducer,
                  init_model, load_code_set, load_dense, pack_bits,
                  save_code_set, save_dense, save_labels)
from hcoh.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from hcoh.codec import CODE_MAGIC
from hcoh.data import FEAT_MAGIC
from hcoh.fileio import atomic_write, labels_from_u32, labels_to_u32


def failing_chunks():
    yield b"first chunk"
    raise RuntimeError("write failed")


class TestAtomicWrite:
    def test_writes_chunks_in_order(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, [b"ab", b"", b"cd"])
        assert target.read_bytes() == b"abcd"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_neither_target_nor_temp(self, tmp_path):
        with pytest.raises(RuntimeError):
            atomic_write(tmp_path / "out.bin", failing_chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_target(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous")
        with pytest.raises(RuntimeError):
            atomic_write(target, failing_chunks())
        assert target.read_bytes() == b"previous"
        assert list(tmp_path.iterdir()) == [target]

    def test_unwritable_path_raises_the_write_error_alone(self, tmp_path):
        # The temp file cannot be made under a regular file, and removing it
        # fails too; that second error must not replace or wrap the first.
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(NotADirectoryError) as info:
            atomic_write(tmp_path / "file" / "out.bin", [b"ab"])
        assert info.value.__context__ is None
        assert list(tmp_path.iterdir()) == [tmp_path / "file"]


class TestLabelEncoding:
    def test_round_trip_with_unknown(self):
        labels = [-1, 0, 7, 2**32 - 2]
        stored = labels_to_u32(labels, "f")
        assert stored.dtype == np.dtype("<u4")
        assert list(stored) == [2**32 - 1, 0, 7, 2**32 - 2]
        assert np.array_equal(labels_from_u32(stored), labels)


def write_checkpoint(path):
    book = HadamardCodebook.create(16, seed=2)
    book.assign_label(3)
    save_checkpoint(path, init_model(5, 8, eta=0.25, seed=1), book,
                    LshReducer.create(16, 8, seed=3))
    return load_checkpoint


def write_code_set(path):
    save_code_set(path, BinaryCodeSet(pack_bits([[1, 0, 1], [0, 1, 1]]),
                                      [0, -1], 3))
    return load_code_set


def write_dense(path):
    save_dense(path, np.ones((2, 3), dtype=np.float32))
    save_labels(path.with_suffix(".lab"), [0, 1])
    return lambda feature_path: load_dense(feature_path,
                                           path.with_suffix(".lab"))


class TestCommonHeader:
    """Checkpoints, code sets and HCOHFEAT files share one header rule."""

    @pytest.mark.parametrize("write, magic", [
        (write_checkpoint, MAGIC),
        (write_code_set, CODE_MAGIC),
        (write_dense, FEAT_MAGIC),
    ], ids=["checkpoint", "code-set", "dense"])
    @pytest.mark.parametrize("damage", ["magic", "short", "version"])
    def test_header_errors_name_file_and_fault(self, tmp_path, write, magic,
                                               damage):
        path = tmp_path / "file.bin"
        load = write(path)
        blob = bytearray(path.read_bytes())
        if damage == "magic":
            blob[:len(magic)] = b"X" * len(magic)
            message = f"bad magic {b'X' * len(magic)!r}, expected {magic!r}"
        elif damage == "short":
            del blob[len(magic) + 5:]
            message = f"truncated header ({len(magic) + 5} bytes)"
        else:
            blob[len(magic)] = 2
            message = "unsupported version 2"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as info:
            load(path)
        assert str(info.value) == f"{path}: {message}"
