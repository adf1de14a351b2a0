import tracemalloc

import numpy as np
import pytest

from hcoh import (BinaryCodeSet, DimensionError, FormatError, HashModel,
                  encode, init_model, load_code_set, pack_bits, rank,
                  save_code_set)
from hcoh.codec import ENCODE_ROWS, _hamming_distances
from tests.conftest import unpack_bits


def naive_hamming(bits_a, bits_b):
    return sum(1 for x, y in zip(bits_a, bits_b) if x != y)


def random_code_set(rng, n, r):
    bits = rng.integers(0, 2, size=(n, r), dtype=np.uint8)
    return BinaryCodeSet(pack_bits(bits), rng.integers(0, 5, n), r), bits


class TestPacking:
    @pytest.mark.parametrize("r", [1, 7, 32, 63, 64, 65, 100, 128, 130])
    def test_round_trip(self, r):
        rng = np.random.default_rng(r)
        bits = rng.integers(0, 2, size=(5, r), dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), r), bits)

    def test_padding_bits_are_zero(self):
        bits = np.ones((3, 70), dtype=np.uint8)
        words = pack_bits(bits)
        assert words.shape == (3, 2)
        # 70 bits leaves 58 zero bits at the top of the second word
        assert (words[:, 1] >> np.uint64(6) == 0).all()

    def test_code_equality_is_word_equality(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(2, 100), dtype=np.uint8)
        bits[1] = bits[0]
        words = pack_bits(bits)
        assert np.array_equal(words[0], words[1])

    def test_dirty_padding_canonicalized_at_construction(self):
        dirty = np.full((2, 1), 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
        code_set = BinaryCodeSet(dirty, [0, 1], length=10)
        assert (code_set.words == np.uint64(0x3FF)).all()


class TestEncode:
    def test_zero_model_sets_every_bit(self):
        model = HashModel(np.zeros((4, 9)), np.zeros(9), eta=0.1)
        codes = encode(model, np.random.default_rng(0).standard_normal((6, 4)))
        assert np.array_equal(unpack_bits(codes.words, 9), np.ones((6, 9)))

    def test_positive_scaling_invariance(self):
        model = init_model(8, 16, eta=0.1, seed=2)
        scaled = HashModel(3.7 * model.weights, 3.7 * model.bias, eta=0.1)
        feats = np.random.default_rng(1).standard_normal((20, 8))
        assert np.array_equal(encode(model, feats).words,
                              encode(scaled, feats).words)

    def test_two_bit_hand_example(self):
        model = HashModel(np.array([[1.0, -1.0]]), np.array([0.0, 0.0]), eta=0.1)
        codes = encode(model, np.array([[2.0]]))
        assert np.array_equal(unpack_bits(codes.words, 2), [[1, 0]])

    def test_matches_unpacked_sign_oracle(self):
        rng = np.random.default_rng(4)
        model = init_model(10, 33, eta=0.1, seed=5)
        feats = rng.standard_normal((40, 10))
        expected = (feats @ model.weights + model.bias >= 0).astype(np.uint8)
        assert np.array_equal(unpack_bits(encode(model, feats).words, 33),
                              expected)

    def test_dimension_mismatch_rejected(self):
        model = init_model(10, 8, eta=0.1, seed=5)
        with pytest.raises(DimensionError):
            encode(model, np.zeros((2, 9)))

    def test_blocks_match_sign_oracle_and_name_global_rows(self):
        # Two full hashing blocks and a ragged third.
        n = 2 * ENCODE_ROWS + 5
        rng = np.random.default_rng(12)
        model = init_model(10, 70, eta=0.1, seed=5)
        feats = rng.standard_normal((n, 10))
        expected = (feats @ model.weights + model.bias >= 0).astype(np.uint8)
        assert np.array_equal(unpack_bits(encode(model, feats).words, 70),
                              expected)
        bad = ENCODE_ROWS + 17
        feats[[bad, n - 1], 3] = np.nan
        with pytest.raises(ValueError, match=rf"2 feature rows .*first row {bad}\)"):
            encode(model, feats)

    def test_labels_carried_alongside(self):
        model = init_model(3, 4, eta=0.1, seed=5)
        codes = encode(model, np.zeros((3, 3)), labels=[7, 8, 9])
        assert np.array_equal(codes.labels, [7, 8, 9])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        model = init_model(3, 4, eta=0.1, seed=5)
        feats = np.ones((5, 3))
        feats[3, 1] = bad
        with pytest.raises(ValueError, match=r"1 feature rows .*first row 3"):
            encode(model, feats)

    def test_overflowing_pre_activation_rejected(self):
        # Finite features; only the second row's product with W overflows.
        model = HashModel(np.array([[1e308], [1e308]]), np.zeros(1), eta=0.1)
        with pytest.raises(ValueError, match=r"1 feature rows .*first row 1"):
            encode(model, np.array([[1.0, -1.0], [1.0, 1.0]]))


    def test_peak_memory_holds_one_pre_activation_array(self):
        model = init_model(16, 128, eta=0.1, seed=5)
        feats = np.random.default_rng(6).standard_normal((20_000, 16))
        tracemalloc.start()
        try:
            encode(model, feats)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * feats.shape[0] * model.code_length * 8


def pair_distance(words_a, words_b, length):
    """Hamming distance of two packed codes through the one kernel."""
    return int(_hamming_distances(np.atleast_2d(words_a),
                                  np.atleast_2d(words_b), length)[0, 0])


class TestHamming:
    """Hamming-distance properties, checked on ``_hamming_distances``."""

    def test_self_distance_zero(self):
        words = np.array([[0xDEADBEEF]], dtype=np.uint64)
        assert pair_distance(words, words, 64) == 0

    def test_four_bit_complement(self):
        a = pack_bits([[1, 0, 1, 0]])
        b = pack_bits([[0, 1, 0, 1]])
        assert pair_distance(a, b, 4) == 4

    def test_matches_naive_loop_on_many_pairs(self):
        rng = np.random.default_rng(6)
        for r in (5, 64, 130):
            bits = rng.integers(0, 2, size=(200, r), dtype=np.uint8)
            words = pack_bits(bits)
            pairs = rng.integers(0, 200, size=(100, 2))
            for i, j in pairs:
                fast = pair_distance(words[i], words[j], r)
                assert fast == naive_hamming(bits[i], bits[j])

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=(30, 48), dtype=np.uint8)
        words = pack_bits(bits)
        dist = _hamming_distances(words, words, 48).astype(int)
        for _ in range(200):
            x, y, z = rng.integers(0, 30, 3)
            assert dist[x, y] == dist[y, x]
            assert dist[x, z] <= dist[x, y] + dist[y, z]
        i, j = rng.integers(0, 30, 2)
        if not np.array_equal(bits[i], bits[j]):
            assert dist[i, j] > 0

    def test_length_mismatch_rejected(self):
        a = BinaryCodeSet(np.zeros((1, 1), dtype=np.uint64), [0], 8)
        b = BinaryCodeSet(np.zeros((1, 1), dtype=np.uint64), [0], 9)
        with pytest.raises(DimensionError, match="8.*9"):
            rank(a, b)

    def test_vectorized_set_distances_agree(self):
        rng = np.random.default_rng(8)
        code_set, bits = random_code_set(rng, 50, 72)
        fast = _hamming_distances(code_set.words[17:18], code_set.words, 72)[0]
        slow = [naive_hamming(bits[17], bits[i]) for i in range(50)]
        assert np.array_equal(fast, slow)


class TestDistanceKernel:
    """``_hamming_distances`` against the unpacked-bits loop."""

    @pytest.mark.parametrize("r", [1, 63, 64, 65, 128, 255, 256, 300])
    def test_matches_naive_loop(self, r):
        rng = np.random.default_rng(r)
        queries, q_bits = random_code_set(rng, 4, r)
        database, db_bits = random_code_set(rng, 30, r)
        expected = np.array([[naive_hamming(a, b) for b in db_bits]
                             for a in q_bits])
        dtype = np.uint8 if r < 256 else np.uint16
        got = _hamming_distances(queries.words, database.words, r)
        assert got.dtype == dtype
        assert np.array_equal(got, expected)
        for qi in range(4):  # one query at a time, as its own (1, w) block
            row = _hamming_distances(queries.words[qi:qi + 1], database.words, r)
            assert row.dtype == dtype
            assert np.array_equal(row[0], expected[qi])

    @pytest.mark.parametrize("r,dtype", [(64, np.uint8), (255, np.uint8),
                                         (256, np.uint16), (65535, np.uint16),
                                         (65536, np.uint32)])
    def test_complement_distance_fits_dtype(self, r, dtype):
        codes = BinaryCodeSet(pack_bits(np.stack([np.zeros(r), np.ones(r)])),
                              [0, 0], r)
        got = _hamming_distances(codes.words, codes.words, r)
        assert got.dtype == dtype
        assert np.array_equal(got, [[0, r], [r, 0]])


class TestCodeSetFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        code_set, _ = random_code_set(rng, 25, 100)
        path = tmp_path / "codes.hcode"
        save_code_set(path, code_set)
        loaded = load_code_set(path)
        assert loaded.length == 100
        assert np.array_equal(loaded.words, code_set.words)
        assert np.array_equal(loaded.labels, code_set.labels)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(10)
        code_set, _ = random_code_set(rng, 10, 32)
        a, b = tmp_path / "a.hcode", tmp_path / "b.hcode"
        save_code_set(a, code_set)
        save_code_set(b, code_set)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hcode"
        path.write_bytes(b"NOTMAGIC" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            load_code_set(path)

    def test_truncation_rejected_with_byte_counts(self, tmp_path):
        rng = np.random.default_rng(11)
        code_set, _ = random_code_set(rng, 25, 100)
        path = tmp_path / "codes.hcode"
        save_code_set(path, code_set)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="bytes"):
            load_code_set(path)

    def test_unknown_labels_round_trip_as_minus_one(self, tmp_path):
        model = init_model(3, 8, eta=0.1, seed=5)
        codes = encode(model, np.zeros((4, 3)))
        path = tmp_path / "codes.hcode"
        save_code_set(path, codes)
        assert path.read_bytes()[-16:] == b"\xff" * 16
        assert np.array_equal(load_code_set(path).labels, [-1] * 4)

    def test_largest_storable_label_round_trips(self, tmp_path):
        codes = BinaryCodeSet(np.zeros((2, 1), dtype=np.uint64),
                              [0, 2**32 - 2], 8)
        path = tmp_path / "codes.hcode"
        save_code_set(path, codes)
        assert np.array_equal(load_code_set(path).labels, [0, 2**32 - 2])

    @pytest.mark.parametrize("label", [-2, 2**32 - 1, 2**32 + 5])
    def test_unstorable_label_rejected_without_writing(self, tmp_path, label):
        codes = BinaryCodeSet(np.zeros((2, 1), dtype=np.uint64), [3, label], 8)
        path = tmp_path / "codes.hcode"
        with pytest.raises(FormatError, match=str(label)):
            save_code_set(path, codes)
        assert list(tmp_path.iterdir()) == []
