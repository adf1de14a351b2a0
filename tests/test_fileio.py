import numpy as np
import pytest

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
