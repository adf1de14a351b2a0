import numpy as np
import pytest

from hcoh import (CodebookExhaustedError, HadamardCodebook, InvalidOrderError,
                  LshReducer, codeword_order, lsh)
from tests.conftest import sylvester


def identity_table(order):
    """The identity reducer's target table, which is H itself."""
    return LshReducer.create(order, order, seed=0).table


class TestCodewordOrder:
    @pytest.mark.parametrize("r,labels,expected", [
        (32, 10, 32),    # smallest power of two >= max(32, 10)
        (8, 10, 16),
        (64, 205, 256),
        (1, 1, 2),       # order never drops below 2
        (16, 16, 16),
        (17, 2, 32),
    ])
    def test_examples(self, r, labels, expected):
        assert codeword_order(r, labels) == expected

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidOrderError):
            codeword_order(0, 5)


class TestBuildHadamard:
    """H as the library builds it: the identity reducer's transform of I."""

    def test_order_two(self):
        assert np.array_equal(identity_table(2), [[1, 1], [1, -1]])

    def test_order_four_expanded_by_hand(self):
        expected = [[1, 1, 1, 1],
                    [1, -1, 1, -1],
                    [1, 1, -1, -1],
                    [1, -1, -1, 1]]
        assert np.array_equal(identity_table(4), expected)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 16, 64])
    def test_orthogonality(self, order):
        h = identity_table(order).astype(np.int64)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
    def test_matches_bit_parity_formula(self, order):
        # entry(i, j) = (-1) ** popcount(i & j), 0-based
        idx = np.arange(order)
        parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
        expected = np.where(parity, -1, 1)
        assert np.array_equal(identity_table(order), expected)

    def test_entries_are_int8_signs(self):
        h = identity_table(16)
        assert h.dtype == np.int8
        assert set(np.unique(h)) == {-1, 1}

    @pytest.mark.parametrize("order", [0, 3, 6, 12, 100])
    def test_rejects_non_powers_of_two(self, order):
        with pytest.raises(InvalidOrderError):
            identity_table(order)

    def test_rejects_orders_above_cap(self):
        with pytest.raises(InvalidOrderError):
            identity_table(2**21)


class TestAssignment:
    def test_idempotent(self):
        book = HadamardCodebook.create(8, seed=1)
        assert book.assign_label(5) == book.assign_label(5)

    def test_exhaustion_by_pigeonhole(self):
        book = HadamardCodebook.create(8, seed=1)
        for label in range(8):
            book.assign_label(label)
        with pytest.raises(CodebookExhaustedError):
            book.assign_label(8)

    def test_free_column_count_tracks_assignments(self):
        book = HadamardCodebook.create(16, seed=3)
        for k, label in enumerate(range(100, 108)):
            book.assign_label(label)
            columns = set(book.assignment.values())
            assert len(columns) == k + 1
            assert columns <= set(range(16))

    def test_injective_over_all_labels(self):
        book = HadamardCodebook.create(32, seed=9)
        columns = [book.assign_label(label) for label in range(32)]
        assert len(set(columns)) == 32

    def test_same_seed_same_arrivals_reproduces_assignment(self):
        arrivals = [4, 1, 9, 0, 7, 4, 1, 3]
        book_a = HadamardCodebook.create(16, seed=42)
        book_b = HadamardCodebook.create(16, seed=42)
        for label in arrivals:
            book_a.assign_label(label)
            book_b.assign_label(label)
        assert book_a.assignment == book_b.assignment

    def test_different_seeds_differ_somewhere(self):
        maps = []
        for seed in range(4):
            book = HadamardCodebook.create(64, seed=seed)
            maps.append(tuple(book.assign_label(label) for label in range(64)))
        assert len(set(maps)) > 1

    def test_restore_continues_the_same_draw_sequence(self):
        original = HadamardCodebook.create(16, seed=5)
        for label in range(6):
            original.assign_label(label)
        restored = HadamardCodebook.restore(16, 5, dict(original.assignment))
        for label in range(6, 12):
            assert original.assign_label(label) == restored.assign_label(label)

    def test_column_sequence_is_pinned(self):
        # The draws of these seeds, as the dense-matrix codebook made them;
        # checkpoints written by it restore only if they stay the same.
        book = HadamardCodebook.create(16, seed=5)
        assert [book.assign_label(label) for label in range(16)] == [
            7, 3, 11, 1, 15, 9, 10, 2, 4, 12, 6, 0, 13, 5, 14, 8]
        book = HadamardCodebook.create(1024, seed=7)
        assert [book.assign_label(label) for label in range(12)] == [
            482, 233, 215, 915, 1009, 90, 656, 71, 805, 685, 776, 500]

    @pytest.mark.parametrize("columns", [
        [3, 11],          # the first two draws (7, 3) skip 7
        [7, 7],           # a column assigned twice
        [7, 3, 16],       # 16 is out of range for order 16
        list(range(17)),  # more labels than columns
    ])
    def test_restore_rejects_non_prefix(self, columns):
        assignment = dict(enumerate(columns))
        with pytest.raises(InvalidOrderError):
            HadamardCodebook.restore(16, 5, assignment)

    def test_restore_accepts_prefix_in_any_label_order(self):
        book = HadamardCodebook.restore(16, 5, {40: 11, 10: 7, 20: 3})
        assert book.assign_label(50) == 1

    def test_create_rejects_order_above_cap(self):
        with pytest.raises(InvalidOrderError):
            HadamardCodebook.create(2**21, seed=0)


class TestCodeword:
    """A label's codeword is its identity-reducer target."""

    def test_first_sylvester_column_is_all_ones(self):
        book = HadamardCodebook.create(2, seed=0)
        codes = lsh.targets([7, 8], book, LshReducer.create(2, 2, seed=0))
        first = [book.assignment[label] for label in (7, 8)].index(0)
        assert np.array_equal(codes[first], [1, 1])

    @pytest.mark.parametrize("order", [2**k for k in range(1, 11)])
    def test_every_column_matches_the_dense_matrix(self, order):
        book = HadamardCodebook.create(order, seed=order)
        codes = lsh.targets(np.arange(order), book,
                            LshReducer.create(order, order, seed=0))
        columns = [book.assignment[label] for label in range(order)]
        assert sorted(columns) == list(range(order))
        assert np.array_equal(codes, sylvester(order)[:, columns].T)

    def test_distinct_labels_orthogonal(self):
        book = HadamardCodebook.create(16, seed=2)
        a, b = lsh.targets([1, 2], book, LshReducer.create(16, 16, seed=0))
        assert a @ b == 0
        assert a @ a == 16

    def test_repeated_lookup_is_identical(self):
        book = HadamardCodebook.create(8, seed=11)
        reducer = LshReducer.create(8, 8, seed=0)
        assert np.array_equal(lsh.targets([3], book, reducer),
                              lsh.targets([3], book, reducer))
