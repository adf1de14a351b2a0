import numpy as np
import pytest

from hcoh import (CodebookExhaustedError, DimensionError, HadamardCodebook,
                  LshReducer, TargetCodeTable, build_hadamard, lsh, sign_pm1)
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
        return TargetCodeTable(out_dim=bits), book, reducer

    def test_repeat_lookups_bitwise_identical(self):
        table, book, reducer = self._setup()
        first = table.targets([3], book, reducer)
        cached = table.codes[3]
        second = table.targets([3, 3], book, reducer)
        assert table.codes[3] is cached
        assert np.array_equal(second, np.vstack([first, first]))

    def test_identity_reducer_keeps_orthogonality(self):
        book = HadamardCodebook.create(16, seed=1)
        reducer = LshReducer.create(16, 16, seed=2)
        table = TargetCodeTable(out_dim=16)
        a, b = table.targets([0, 1], book, reducer)
        assert a @ b == 0

    def test_grows_by_one_per_new_label(self):
        table, book, reducer = self._setup()
        sizes = []
        for label in [5, 5, 2, 9, 2]:
            table.targets([label], book, reducer)
            sizes.append(len(table))
        assert sizes == [1, 1, 2, 3, 3]

    def test_cached_codes_are_frozen(self):
        table, book, reducer = self._setup()
        table.targets([1], book, reducer)
        code = table.codes[1]
        with pytest.raises(ValueError):
            code[0] = -code[0]

    @pytest.mark.parametrize("order,bits", [(16384, 64), (1024, 128), (64, 64)])
    def test_matches_per_label_oracle_over_all_columns(self, order, bits):
        # Every column of the codebook, in two calls with repeats; at
        # 16,384 the new labels span several stacks of STACK_ENTRIES.
        reducer = LshReducer.create(order, bits, seed=order + bits)
        assert reducer.is_identity == (order == bits)
        rng = np.random.default_rng(order)
        labels = rng.choice(10 * order, size=order, replace=False)
        stream = rng.permutation(np.concatenate([labels, labels[:order // 2]]))
        book = HadamardCodebook.create(order, seed=3)
        table = TargetCodeTable(out_dim=bits)
        got = np.vstack([table.targets(part, book, reducer)
                         for part in np.array_split(stream, 2)])
        oracle_book = HadamardCodebook.create(order, seed=3)
        expected = per_label_targets(stream, oracle_book, reducer, {})
        assert np.array_equal(got, expected)
        assert list(book.assignment.items()) == list(oracle_book.assignment.items())
        assert len(book.assignment) == order

    def test_new_labels_take_columns_in_first_sight_order(self):
        table, book, reducer = self._setup()
        table.targets([4], book, reducer)
        table.targets([9, 4, 2, 9, 7, 2], book, reducer)
        assert list(book.assignment) == [4, 9, 2, 7]
        assert list(book.assignment.values()) == book._draw[:4].tolist()

    @pytest.mark.parametrize("stack_entries", [lsh.STACK_ENTRIES, 2 * 8])
    def test_exhaustion_mid_call_leaves_the_per_label_state(self, stack_entries,
                                                            monkeypatch):
        # Order 8 with label 3 cached: seven of the nine new labels fit.
        # Stacks of two labels put the failing label mid-stack.
        monkeypatch.setattr(lsh, "STACK_ENTRIES", stack_entries)
        labels = [3, 1, 3, 4, 0, 6, 2, 1, 8, 5, 7, 9]
        book = HadamardCodebook.create(8, seed=1)
        reducer = LshReducer.create(8, 4, seed=2)
        table = TargetCodeTable(out_dim=4)
        table.targets([3], book, reducer)
        with pytest.raises(CodebookExhaustedError):
            table.targets(labels, book, reducer)
        oracle_book, codes = HadamardCodebook.create(8, seed=1), {}
        per_label_targets([3], oracle_book, reducer, codes)
        with pytest.raises(CodebookExhaustedError):
            per_label_targets(labels, oracle_book, reducer, codes)
        assert list(book.assignment.items()) == list(oracle_book.assignment.items())
        assert list(table.codes) == list(codes)
        assert all(np.array_equal(table.codes[k], codes[k]) for k in codes)
