import numpy as np
import pytest

from hcoh import (CodebookExhaustedError, DimensionError, HadamardCodebook,
                  LshReducer, build_hadamard, lsh, sign_pm1)
from tests.conftest import per_label_targets


def test_sign_convention_maps_zero_to_plus_one():
    assert np.array_equal(sign_pm1([-2.0, -0.0, 0.0, 3.0]), [-1, 1, 1, 1])


class TestReduce:
    def test_identity_when_dims_match(self):
        reducer = LshReducer.create(16, 16, seed=4)
        assert reducer.is_identity
        codeword = build_hadamard(16)[:, 5]
        assert np.array_equal(reducer.reduce(codeword), codeword)

    def test_fixed_projection_gives_identical_outputs(self):
        reducer = LshReducer.create(32, 8, seed=4)
        codeword = build_hadamard(32)[:, 3]
        assert np.array_equal(reducer.reduce(codeword), reducer.reduce(codeword))

    def test_same_seed_same_projection(self):
        a = LshReducer.create(32, 8, seed=123)
        b = LshReducer.create(32, 8, seed=123)
        assert np.array_equal(a.projection, b.projection)

    def test_outputs_are_signs(self):
        reducer = LshReducer.create(64, 16, seed=0)
        out = reducer.reduce(build_hadamard(64)[:, 9])
        assert set(np.unique(out)) <= {-1, 1}

    def test_length_mismatch_rejected(self):
        reducer = LshReducer.create(32, 8, seed=4)
        for shape in [(16,), (3, 16), (2, 3, 32)]:
            with pytest.raises(DimensionError):
                reducer.reduce(np.ones(shape, dtype=np.int8))

    def test_orthogonal_columns_land_near_half_distance(self):
        # Sign-of-Gaussian-projection sends vectors at angle theta to codes
        # agreeing per bit with probability 1 - theta/pi; orthogonal inputs
        # should sit near normalized distance 0.5.  Per-seed spread is
        # binomial: sigma = sqrt(0.25/64) = 0.0625.
        h = build_hadamard(256)
        a, b = h[:, 1], h[:, 2]
        distances = []
        for seed in range(500):
            reducer = LshReducer.create(256, 64, seed=seed)
            distances.append(
                np.mean(reducer.reduce(a) != reducer.reduce(b)))
        distances = np.asarray(distances)
        assert abs(distances.mean() - 0.5) < 0.01
        assert np.mean(np.abs(distances - 0.5) > 3 * 0.0625) < 0.01

    def test_identical_inputs_always_collide(self):
        h = build_hadamard(256)
        for seed in (0, 7, 99):
            reducer = LshReducer.create(256, 64, seed=seed)
            assert np.array_equal(reducer.reduce(h[:, 4]), reducer.reduce(h[:, 4]))


class TestTargetCodeTable:
    def _setup(self, order=16, bits=8):
        book = HadamardCodebook.create(order, seed=1)
        reducer = LshReducer.create(order, bits, seed=2)
        return book, reducer

    def test_repeat_lookups_bitwise_identical(self):
        book, reducer = self._setup()
        first = lsh.targets([3], book, reducer)
        second = lsh.targets([3, 3], book, reducer)
        assert np.array_equal(second, np.vstack([first, first]))
        assert list(book.assignment) == [3]

    def test_identity_reducer_keeps_orthogonality(self):
        book = HadamardCodebook.create(16, seed=1)
        reducer = LshReducer.create(16, 16, seed=2)
        a, b = lsh.targets([0, 1], book, reducer)
        assert a @ b == 0
        assert reducer.table is None

    def test_grows_by_one_per_new_label(self):
        book, reducer = self._setup()
        sizes = []
        for label in [5, 5, 2, 9, 2]:
            lsh.targets([label], book, reducer)
            sizes.append(len(book.assignment))
        assert sizes == [1, 1, 2, 3, 3]

    def test_target_table_is_read_only(self):
        book, reducer = self._setup()
        codes = lsh.targets([1], book, reducer)
        expected = codes.copy()
        codes[0, 0] = -codes[0, 0]      # the caller's copy, not the table
        table = reducer.table
        assert table.dtype == np.int8 and table.shape == (16, 8)
        with pytest.raises(ValueError):
            table[0, 0] = -table[0, 0]
        assert np.array_equal(lsh.targets([1], book, reducer), expected)

    @pytest.mark.parametrize("order,bits", [(16384, 64), (1024, 128), (64, 64)])
    def test_matches_per_label_oracle_over_all_columns(self, order, bits):
        # Every column of the codebook, in two calls with repeats; at
        # 16,384 the transform's butterfly passes split every wide stage.
        reducer = LshReducer.create(order, bits, seed=order + bits)
        assert reducer.is_identity == (order == bits)
        rng = np.random.default_rng(order)
        labels = rng.choice(10 * order, size=order, replace=False)
        stream = rng.permutation(np.concatenate([labels, labels[:order // 2]]))
        book = HadamardCodebook.create(order, seed=3)
        got = np.vstack([lsh.targets(part, book, reducer)
                         for part in np.array_split(stream, 2)])
        oracle_book = HadamardCodebook.create(order, seed=3)
        expected = per_label_targets(stream, oracle_book, reducer, {})
        assert np.array_equal(got, expected)
        assert list(book.assignment.items()) == list(oracle_book.assignment.items())
        assert len(book.assignment) == order

    @pytest.mark.parametrize("entries", [4, 64, lsh.BUTTERFLY_ENTRIES])
    def test_table_is_the_dense_product_sign_at_any_pass_size(self, entries,
                                                               monkeypatch):
        # Passes of 4 entries split every stage of a (256, 8) transform
        # across row groups and within them; the sums are the same.
        monkeypatch.setattr(lsh, "BUTTERFLY_ENTRIES", entries)
        reducer = LshReducer.create(256, 8, seed=11)
        product = build_hadamard(256) @ reducer.projection
        assert np.abs(product).min() > 1e-9
        assert np.array_equal(reducer.table, sign_pm1(product))

    def test_nothing_is_drawn_before_it_is_read(self):
        reducer = LshReducer.create(1024, 16, seed=5)
        assert "projection" not in vars(reducer) and "table" not in vars(reducer)
        lsh.targets([7], HadamardCodebook.create(1024, seed=1), reducer)
        assert "table" in vars(reducer) and "projection" not in vars(reducer)

    def test_order_mismatch_rejected(self):
        book = HadamardCodebook.create(32, seed=1)
        with pytest.raises(DimensionError):
            lsh.targets([1], book, LshReducer.create(16, 8, seed=2))
        assert book.assignment == {}

    def test_new_labels_take_columns_in_first_sight_order(self):
        book, reducer = self._setup()
        lsh.targets([4], book, reducer)
        lsh.targets([9, 4, 2, 9, 7, 2], book, reducer)
        assert list(book.assignment) == [4, 9, 2, 7]
        assert list(book.assignment.values()) == book._draw[:4].tolist()

    @pytest.mark.parametrize("entries", [2**22, 16])
    def test_exhaustion_mid_call_leaves_the_per_label_state(self, entries,
                                                            monkeypatch):
        # Order 8 with label 3 assigned: seven of the nine new labels fit.
        # Passes of 16 entries split the (8, 4) table's transform; 2**22
        # takes every stage in one pass.
        monkeypatch.setattr(lsh, "BUTTERFLY_ENTRIES", entries)
        labels = [3, 1, 3, 4, 0, 6, 2, 1, 8, 5, 7, 9]
        book = HadamardCodebook.create(8, seed=1)
        reducer = LshReducer.create(8, 4, seed=2)
        lsh.targets([3], book, reducer)
        with pytest.raises(CodebookExhaustedError):
            lsh.targets(labels, book, reducer)
        oracle_book, codes = HadamardCodebook.create(8, seed=1), {}
        per_label_targets([3], oracle_book, reducer, codes)
        with pytest.raises(CodebookExhaustedError):
            per_label_targets(labels, oracle_book, reducer, codes)
        assert list(book.assignment.items()) == list(oracle_book.assignment.items())
        assert list(book.assignment) == list(codes)
        assigned = list(codes)
        assert np.array_equal(lsh.targets(assigned, book, reducer),
                              per_label_targets(assigned, oracle_book, reducer,
                                                codes))
