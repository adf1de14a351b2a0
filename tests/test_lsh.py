import math
import tracemalloc

import numpy as np
import pytest

from hcoh import (CodebookExhaustedError, DimensionError, HadamardCodebook,
                  InvalidOrderError, LshReducer, lsh)
from tests.conftest import (gaussian_projection, per_label_targets, sign_pm1,
                            sylvester)


def test_sign_convention_maps_zero_to_plus_one():
    # Columns transform to (0, 2), (-0.0, 0.0) and (1.5, -0.5).
    p = np.array([[1.0, -0.0, 0.5], [-1.0, -0.0, 1.0]])
    assert np.array_equal(lsh._target_table(p), [[1, 1, 1], [1, 1, -1]])


class TestReduce:
    def test_identity_when_dims_match(self):
        reducer = LshReducer.create(16, 16, seed=4)
        assert reducer.is_identity
        book = HadamardCodebook.create(16, seed=1)
        code = lsh.targets([5], book, reducer)[0]
        assert np.array_equal(code, sylvester(16)[:, book.assignment[5]])

    def test_fixed_projection_gives_identical_outputs(self):
        reducer = LshReducer.create(32, 8, seed=4)
        book = HadamardCodebook.create(32, seed=1)
        assert np.array_equal(lsh.targets([3], book, reducer),
                              lsh.targets([3], book, reducer))

    def test_same_seed_same_projection(self):
        a = LshReducer.create(32, 8, seed=123)
        b = LshReducer.create(32, 8, seed=123)
        assert np.array_equal(a.table, b.table)
        assert not np.array_equal(a.table, LshReducer.create(32, 8, seed=124).table)

    def test_outputs_are_signs(self):
        table = LshReducer.create(64, 16, seed=0).table
        assert table.shape == (64, 16)
        assert set(np.unique(table)) <= {-1, 1}

    def test_orthogonal_columns_land_near_half_distance(self):
        # Sign-of-Gaussian-projection sends vectors at angle theta to codes
        # agreeing per bit with probability 1 - theta/pi; orthogonal inputs
        # should sit near normalized distance 0.5.  Per-seed spread is
        # binomial: sigma = sqrt(0.25/64) = 0.0625.
        distances = []
        for seed in range(500):
            table = LshReducer.create(256, 64, seed=seed).table
            distances.append(np.mean(table[1] != table[2]))
        distances = np.asarray(distances)
        assert abs(distances.mean() - 0.5) < 0.01
        assert np.mean(np.abs(distances - 0.5) > 3 * 0.0625) < 0.01

    def test_gaussian_target_distances_are_binomial(self):
        # For orthogonal codewords h_j and a Gaussian P, the rows h_j.T @ P
        # are independent, so the targets of distinct labels are i.i.d.
        # uniform signs and their distances Binomial(16, 1/2).  Over these
        # 200 seeds the 9,000 distances' frequencies lie within 0.00464 of
        # the pmf; other 200-seed samples reach 0.008.
        counts = np.zeros(17)
        pairs = np.triu_indices(10, 1)
        for seed in range(200):
            codes = lsh.targets(range(10), HadamardCodebook.create(64, seed),
                                LshReducer.create(64, 16, seed))
            distances = (codes[pairs[0]] != codes[pairs[1]]).sum(axis=1)
            counts += np.bincount(distances, minlength=17)
        pmf = np.array([math.comb(16, k) for k in range(17)]) / 2**16
        assert np.abs(counts / counts.sum() - pmf).max() < 0.006

    def test_identical_inputs_always_collide(self):
        for seed in (0, 7, 99):
            book = HadamardCodebook.create(256, seed=seed)
            codes = lsh.targets([4, 9, 4], book,
                                LshReducer.create(256, 64, seed=seed))
            assert np.array_equal(codes[0], codes[2])

    def test_create_rejects_order_not_a_power_of_two(self):
        with pytest.raises(InvalidOrderError):
            LshReducer.create(12, 4, 0)

    def test_create_rejects_zero_output_bits(self):
        with pytest.raises(DimensionError, match="must be positive, got 0"):
            LshReducer.create(16, 0, 0)

    def test_create_bounds_the_target_table(self):
        with pytest.raises(InvalidOrderError,
                           match=f"target table of {2**20} x 128 entries"):
            LshReducer.create(2**20, 128, seed=0)
        at_cap = LshReducer.create(2**20, 64, seed=0)
        assert at_cap.in_dim * at_cap.out_dim == lsh.MAX_TABLE_ENTRIES
        assert "table" not in vars(at_cap)


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
        assert np.array_equal(reducer.table, sylvester(16))

    def test_identity_table_is_sylvester_with_a_small_build_peak(self):
        for order in (2**k for k in range(1, 11)):
            assert np.array_equal(LshReducer.create(order, order, 0).table,
                                  sylvester(order))
        # int8 all the way: P and the sign mask are one table's bytes
        # each, where a float64 P alone would be eight.
        reducer = LshReducer.create(1024, 1024, seed=0)
        tracemalloc.start()
        try:
            table = reducer.table
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * table.nbytes

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
        product = sylvester(256) @ gaussian_projection(reducer)
        assert np.abs(product).min() > 1e-9
        assert np.array_equal(reducer.table, sign_pm1(product))

    def test_nothing_is_drawn_before_it_is_read(self):
        reducer = LshReducer.create(1024, 16, seed=5)
        assert "table" not in vars(reducer)
        lsh.targets([7], HadamardCodebook.create(1024, seed=1), reducer)
        assert "table" in vars(reducer)

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
