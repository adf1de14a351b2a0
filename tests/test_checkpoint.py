import struct

import numpy as np
import pytest

from hcoh import (FormatError, HadamardCodebook, HashModel, HcohError,
                  InvalidOrderError, LshReducer, encode, init_model)
from hcoh.checkpoint import load_checkpoint, save_checkpoint
from tests.conftest import (checkpoint_bytes, over_cap_state,
                            save_over_cap_checkpoint)


def make_state(bits=8, order=16, d=5):
    model = init_model(d, bits, eta=0.25, seed=1)
    model.round = 123
    book = HadamardCodebook.create(order, seed=2)
    for label in (4, 0, 9):
        book.assign_label(label)
    reducer = LshReducer.create(order, bits, seed=3)
    return model, book, reducer


def refused_at_save(path, model, book, reducer, error, match):
    """Saving the state raises ``error`` matching ``match`` and writes nothing."""
    with pytest.raises(error, match=match):
        save_checkpoint(path, model, book, reducer)
    assert list(path.parent.iterdir()) == []


def save_off_the_draw_prefix(path):
    """make_state's checkpoint with its last column swapped for a spare one."""
    model, book, reducer = make_state()
    save_checkpoint(path, model, book, reducer)
    spare = next(c for c in range(book.order)
                 if c not in book.assignment.values())
    blob = bytearray(path.read_bytes())
    blob[-21:-17] = spare.to_bytes(4, "little")  # the last pair's column
    path.write_bytes(bytes(blob))


def save_order_twelve(path):
    """make_state's checkpoint with order 12 in the codebook and reducer."""
    save_checkpoint(path, *make_state())
    blob = bytearray(path.read_bytes())
    # The order follows the 13-byte header, eta, round, 5 x 8 weights and
    # 8 biases; the reducer's in_dim starts its last 17 bytes.
    struct.pack_into("<I", blob, 29 + (5 * 8 + 8) * 8, 12)
    struct.pack_into("<I", blob, len(blob) - 17, 12)
    path.write_bytes(bytes(blob))


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

    def test_restored_codebook_equals_the_saved_one(self, tmp_path):
        model, book, reducer = make_state()
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        _, loaded, _ = load_checkpoint(path)
        assert loaded == book
        assert "_draw" not in repr(loaded)

    @pytest.mark.parametrize("bits, labels", [(8, (4, 0, 9)), (16, (4, -1, 0)),
                                              (8, ())],
                             ids=["gaussian", "identity-unknown-label",
                                  "no-label"])
    def test_independent_packer_writes_the_saved_bytes(self, tmp_path, bits,
                                                       labels):
        model, _, _ = make_state(bits=bits)
        book = HadamardCodebook.create(16, seed=2)
        for label in labels:
            book.assign_label(label)
        reducer = LshReducer.create(16, bits, seed=3)
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, model, book, reducer)
        assert path.read_bytes() == checkpoint_bytes(model, book, reducer)

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

    def test_repeated_label_rejected(self, tmp_path):
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, *make_state())
        blob = bytearray(path.read_bytes())
        # The three (label, column) pairs sit sorted by label, 0, 4, 9,
        # just before the 17 reducer bytes; label 0 becomes a second 4.
        blob[-41:-37] = (4).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError,
                           match="model.hcoh: label 4 is assigned more than once"):
            load_checkpoint(path)

    def test_cut_after_the_header_rejected(self, tmp_path):
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, *make_state())
        path.write_bytes(path.read_bytes()[:40])
        # 29 bytes to W, 5 x 8 weights and 8 biases, then the 16 codebook bytes.
        need = 29 + (5 * 8 + 8) * 8 + 16
        with pytest.raises(FormatError,
                           match=f"model.hcoh: expected at least {need} bytes, got 40"):
            load_checkpoint(path)

    # The last 17 bytes are the reducer's u32 in_dim, u32 out_dim, u64 seed
    # and u8 identity flag.
    @pytest.mark.parametrize("where, value, error", [
        (slice(-1, None), b"\x01", "reducer record 16x8, identity flag 1, "
         "does not match order 16 and code length 8"),
        (slice(-17, -13), (32).to_bytes(4, "little"),
         "reducer record 32x8, identity flag 0, "
         "does not match order 16 and code length 8"),
    ], ids=["identity-flag", "reducer-dims"])
    def test_inconsistent_reducer_rejected(self, tmp_path, where, value, error):
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, *make_state())
        blob = bytearray(path.read_bytes())
        blob[where] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"model.hcoh: {error}"):
            load_checkpoint(path)

    def test_reducer_above_the_table_cap_rejected(self, tmp_path):
        path = tmp_path / "model.hcoh"
        error = f"model.hcoh: target table of {2**20} x 128 entries"
        refused_at_save(path, *over_cap_state(), InvalidOrderError, error)
        save_over_cap_checkpoint(path)
        with pytest.raises(InvalidOrderError, match=error):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, error", [
        (save_off_the_draw_prefix, "the 3 assigned columns are not the first "
                                   "3 draws"),
        (save_order_twelve, "order must be a power of two, got 12"),
        (save_over_cap_checkpoint, f"target table of {2**20} x 128 entries"),
    ], ids=["off-the-prefix", "order-12", "over-the-cap"])
    def test_codebook_and_reducer_errors_name_the_file(self, tmp_path, damage,
                                                      error):
        path = tmp_path / "model.hcoh"
        damage(path)
        with pytest.raises(InvalidOrderError, match=f"model.hcoh: {error}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("d, r", [(0, 8), (5, 0)], ids=["d0", "r0"])
    def test_empty_model_rejected(self, tmp_path, d, r):
        state = (HashModel(weights=np.zeros((d, r)), bias=np.zeros(r), eta=0.25),
                 HadamardCodebook.create(16, seed=2), LshReducer(16, r, seed=3))
        path = tmp_path / "model.hcoh"
        error = (f"model.hcoh: feature dimension {d} and code length {r} must "
                 f"both be positive")
        refused_at_save(path, *state, FormatError, error)
        path.write_bytes(checkpoint_bytes(*state))
        with pytest.raises(FormatError, match=error):
            load_checkpoint(path)

    def test_reducer_off_the_book_and_code_length_not_written(self, tmp_path):
        model, book, _ = make_state(bits=8, order=16, d=3)
        reducer = LshReducer.create(32, 8, seed=3)
        path = tmp_path / "model.hcoh"
        error = ("model.hcoh: reducer record 32x8, identity flag 0, does not "
                 "match order 16 and code length 8")
        refused_at_save(path, model, book, reducer, FormatError, error)
        path.write_bytes(checkpoint_bytes(model, book, reducer))
        with pytest.raises(FormatError, match=error):
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
        refused_at_save(path, model, book, reducer, FormatError,
                        "model.hcoh: non-finite")
        path.write_bytes(checkpoint_bytes(model, book, reducer))
        with pytest.raises(FormatError, match="model.hcoh: non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("eta", [np.nan, -1.0])
    def test_rate_not_positive_and_finite_rejected(self, tmp_path, eta):
        path = tmp_path / "model.hcoh"
        save_checkpoint(path, *make_state())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 13, eta)  # eta follows the 13-byte header
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="model.hcoh: learning rate"):
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

    @pytest.mark.parametrize("field, value", [
        ("round", -1), ("round", 2.5), ("round", 2**64), ("reducer seed", -1),
        ("book seed", -1)])
    def test_field_outside_its_integer_rejected_without_writing(self, tmp_path,
                                                               field, value):
        # Packing fails before the loader's rules see the bytes; the error
        # is still a FormatError naming the file, which cli.main reports.
        model, book, reducer = make_state(bits=8, order=8)
        if field == "round":
            model.round = value
        elif field == "reducer seed":
            reducer = LshReducer.create(8, 8, value)
        else:
            book.seed = value
        refused_at_save(tmp_path / "model.hcoh", model, book, reducer, FormatError,
                        "model.hcoh: .* does not fit")

def refused_state(case):
    """make_state's (model, book, reducer), damaged as ``case`` names."""
    model, book, reducer = make_state()
    if case == "d0":
        model = HashModel(np.zeros((0, 8)), np.zeros(8), eta=0.25)
    elif case == "r0":
        model = HashModel(np.zeros((5, 0)), np.zeros(0), eta=0.25)
        reducer = LshReducer(16, 0, seed=3)
    elif case.startswith("eta="):
        model.eta = float(case[4:])
    elif case == "weight-nan":
        model.weights[3, 5] = np.nan
    elif case == "bias-inf":
        model.bias[2] = np.inf
    elif case == "bias-of-r-plus-1":
        model.bias = np.append(model.bias, 0.5)
    elif case == "reducer-dims":
        reducer = LshReducer.create(32, 8, seed=3)
    elif case == "over-the-cap":
        model, book, reducer = over_cap_state()
    else:  # "reseeded": the book's seed changed after it assigned its labels
        book.seed += 1
    return model, book, reducer


@pytest.mark.parametrize("case", [
    "d0", "r0", "eta=0", "eta=-1", "eta=nan", "eta=inf", "weight-nan",
    "bias-inf", "bias-of-r-plus-1", "reducer-dims", "over-the-cap",
    "reseeded"])
def test_save_refuses_what_load_refuses(tmp_path, case):
    """Saving raises what loading the state's bytes raises, and writes nothing."""
    model, book, reducer = refused_state(case)
    path = tmp_path / "model.hcoh"
    with pytest.raises(HcohError) as saved:
        save_checkpoint(path, model, book, reducer)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(checkpoint_bytes(model, book, reducer))
    with pytest.raises(HcohError) as loaded:
        load_checkpoint(path)
    assert (type(saved.value), str(saved.value)) == (type(loaded.value),
                                                     str(loaded.value))
