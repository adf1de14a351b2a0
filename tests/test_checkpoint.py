import numpy as np
import pytest

from hcoh import (FormatError, HadamardCodebook, InvalidOrderError, LshReducer,
                  encode, init_model)
from hcoh.checkpoint import load_checkpoint, save_checkpoint


def make_state(bits=8, order=16, d=5):
    model = init_model(d, bits, eta=0.25, seed=1)
    model.round = 123
    book = HadamardCodebook.create(order, seed=2)
    for label in (4, 0, 9):
        book.assign_label(label)
    reducer = LshReducer.create(order, bits, seed=3)
    return model, book, reducer


class TestRoundTrip:
    def test_model_restored_exactly(self, tmp_path):
        model, book, reducer = make_state()
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        loaded_model, loaded_book, loaded_reducer = load_checkpoint(path)
        assert np.array_equal(loaded_model.weights, model.weights)
        assert np.array_equal(loaded_model.bias, model.bias)
        assert loaded_model.eta == model.eta
        assert loaded_model.round == 123
        assert loaded_book.assignment == book.assignment
        assert np.array_equal(loaded_reducer.table, reducer.table)

    def test_encode_after_load_builds_no_target_table(self, tmp_path):
        model, book, reducer = make_state(bits=8, order=1024, d=5)
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        loaded_model, _, loaded_reducer = load_checkpoint(path)
        features = np.random.default_rng(4).standard_normal((50, 5))
        assert np.array_equal(encode(loaded_model, features).words,
                              encode(model, features).words)
        assert "table" not in vars(loaded_reducer)
        assert np.array_equal(loaded_reducer.table, reducer.table)

    def test_identity_reducer_round_trip(self, tmp_path):
        model, book, _ = make_state(bits=16, order=16)
        reducer = LshReducer.create(16, 16, seed=3)
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        _, _, loaded = load_checkpoint(path)
        assert loaded.is_identity

    def test_restored_codebook_continues_draw_sequence(self, tmp_path):
        model, book, reducer = make_state()
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        _, restored, _ = load_checkpoint(path)
        for label in (11, 12, 13):
            assert restored.assign_label(label) == book.assign_label(label)

    def test_unknown_label_round_trips(self, tmp_path):
        model, book, reducer = make_state()
        book.assign_label(-1)
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        _, loaded, _ = load_checkpoint(path)
        assert loaded.assignment == book.assignment

    def test_rewrite_is_byte_identical(self, tmp_path):
        model, book, reducer = make_state()
        a, b = tmp_path / "a.hcoh", tmp_path / "b.hcoh"
        save_checkpoint(a, model, book, reducer)
        save_checkpoint(b, model, book, reducer)
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, *make_state())
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, *make_state())
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="bytes"):
            load_checkpoint(path)

    def test_assignment_off_the_draw_prefix_rejected(self, tmp_path):
        model, book, reducer = make_state()
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        spare = next(c for c in range(book.order)
                     if c not in book.assignment.values())
        blob = bytearray(path.read_bytes())
        blob[-21:-17] = spare.to_bytes(4, "little")  # the last pair's column
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidOrderError, match="first 3 draws"):
            load_checkpoint(path)

    @pytest.mark.parametrize("what, value", [("weight", np.nan),
                                             ("bias", np.inf)])
    def test_non_finite_parameter_rejected(self, tmp_path, what, value):
        model, book, reducer = make_state()
        if what == "weight":
            model.weights[3, 5] = value
        else:
            model.bias[2] = value
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        with pytest.raises(FormatError, match="model.hcoh: non-finite"):
            load_checkpoint(path)

    def test_no_partial_file_left_on_failed_write(self, tmp_path):
        model, book, reducer = make_state()
        target = tmp_path / "sub" / "model.hcoh"  # parent does not exist
        with pytest.raises(OSError):
            save_checkpoint(target, model, book, reducer)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("label", [-5, 2**32 - 1, 2**32 + 5])
    def test_unstorable_label_rejected_without_writing(self, tmp_path, label):
        model, book, reducer = make_state()
        book.assign_label(label)
        with pytest.raises(FormatError, match=str(label)):
            save_checkpoint(tmp_path / "model.hcoh", model, book, reducer)
        assert list(tmp_path.iterdir()) == []
