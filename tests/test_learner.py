from functools import partial
from itertools import islice

import numpy as np
import pytest

from hcoh import (DimensionError, HadamardCodebook, HashModel, LshReducer,
                  NumericFailureError, init_model, learner, loss,
                  relaxed_codes, sgd_step, train_stream)
from hcoh.learner import BLOCK_ROWS
from tests.conftest import (dense_sgd_step, per_label_targets, per_step_sgd,
                            relative_error)

# Blocked steps round differently from the per-step loop; at small eta
# the two agree to this relative error (measured about 3e-14).
BLOCK_TOLERANCE = 1e-10


def reference_loss(weights, bias, features, targets):
    """Plain re-statement of the objective, independent of the library."""
    a = np.tanh(features @ weights + bias)
    return ((a - targets) ** 2).sum() / features.shape[0]


def fd_gradients(weights, bias, features, targets, step=1e-6):
    """Central finite differences of reference_loss in every parameter."""
    grad_w = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            w_hi, w_lo = weights.copy(), weights.copy()
            w_hi[i, j] += step
            w_lo[i, j] -= step
            grad_w[i, j] = (reference_loss(w_hi, bias, features, targets)
                            - reference_loss(w_lo, bias, features, targets)) / (2 * step)
    grad_b = np.zeros_like(bias)
    for j in range(bias.shape[0]):
        b_hi, b_lo = bias.copy(), bias.copy()
        b_hi[j] += step
        b_lo[j] -= step
        grad_b[j] = (reference_loss(weights, b_hi, features, targets)
                     - reference_loss(weights, b_lo, features, targets)) / (2 * step)
    return grad_w, grad_b


def step_gradients(model, features, targets, step=sgd_step):
    """Recover the analytic gradient from one eta=1 update by ``step``."""
    probe = model.copy()
    probe.eta = 1.0
    w_before, b_before = probe.weights.copy(), probe.bias.copy()
    step(probe, features, targets)
    return w_before - probe.weights, b_before - probe.bias


def random_problem(rng, d_max=8, r_max=8):
    d = int(rng.integers(1, d_max + 1))
    r = int(rng.integers(1, r_max + 1))
    n = int(rng.integers(1, 4))
    model = init_model(d, r, eta=0.1, seed=int(rng.integers(0, 2**32)))
    features = rng.standard_normal((n, d))
    targets = rng.choice([-1.0, 1.0], size=(n, r))
    return model, features, targets


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = init_model(10, 4, eta=0.2, seed=99)
        b = init_model(10, 4, eta=0.2, seed=99)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_shapes_at_benchmark_scale(self):
        model = init_model(4096, 32, eta=0.2, seed=0)
        assert model.weights.shape == (4096, 32)
        assert model.bias.shape == (32,)
        assert model.round == 0

    def test_rejects_zero_dims(self):
        with pytest.raises(DimensionError):
            init_model(0, 4, eta=0.2, seed=0)
        with pytest.raises(DimensionError):
            init_model(4, 0, eta=0.2, seed=0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0])
    def test_rejects_rate_not_positive_and_finite(self, eta):
        with pytest.raises(ValueError, match="positive and finite"):
            init_model(4, 4, eta=eta, seed=0)


class TestRelaxedCodes:
    def test_zero_model_gives_zeros(self):
        model = HashModel(np.zeros((3, 5)), np.zeros(5), eta=0.1)
        out = relaxed_codes(model, np.random.default_rng(0).standard_normal((4, 3)))
        assert np.array_equal(out, np.zeros((4, 5)))

    def test_entries_strictly_inside_unit_interval(self):
        model = init_model(6, 4, eta=0.1, seed=1)
        out = relaxed_codes(model, np.random.default_rng(1).standard_normal((50, 6)))
        assert np.abs(out).max() < 1.0

    def test_scalar_hand_evaluation(self):
        model = HashModel(np.array([[1.0], [0.0]]), np.array([0.0]), eta=0.1)
        out = relaxed_codes(model, np.array([[0.5, 7.0]]))
        assert out[0, 0] == pytest.approx(np.tanh(0.5), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = init_model(6, 4, eta=0.1, seed=1)
        with pytest.raises(DimensionError):
            relaxed_codes(model, np.zeros((2, 5)))


class TestLoss:
    def test_zero_model_against_sign_targets_gives_code_length(self):
        r = 7
        model = HashModel(np.zeros((3, r)), np.zeros(r), eta=0.1)
        targets = np.ones((2, r))
        assert loss(model, np.ones((2, 3)), targets) == pytest.approx(r)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model, features, targets = random_problem(rng)
            assert loss(model, features, targets) >= 0.0

    def test_duplicating_the_batch_leaves_loss_unchanged(self):
        rng = np.random.default_rng(6)
        model, features, targets = random_problem(rng)
        doubled = np.vstack([features, features])
        assert loss(model, doubled, np.vstack([targets, targets])) == pytest.approx(
            loss(model, features, targets), rel=1e-12)

    def test_empty_block_rejected(self):
        model = init_model(3, 2, eta=0.1, seed=0)
        with pytest.raises(DimensionError, match="at least one"):
            loss(model, np.zeros((0, 3)), np.zeros((0, 2)))


class TestSgdStep:
    def test_zero_rate_only_bumps_round(self):
        model = init_model(4, 3, eta=0.1, seed=0)
        model.eta = 0.0
        w, b = model.weights.copy(), model.bias.copy()
        sgd_step(model, np.ones((1, 4)), np.ones((1, 3)))
        assert np.array_equal(model.weights, w)
        assert np.array_equal(model.bias, b)
        assert model.round == 1

    def test_hand_worked_scalar_update(self):
        # d=1, r=1, W=0, b=0, x=1, target=+1, eta=0.5:
        # a=0, factor=1, err=-1, grad_W = grad_b = -2, so W=b=1.0.
        model = HashModel(np.zeros((1, 1)), np.zeros(1), eta=0.5)
        sgd_step(model, np.array([[1.0]]), np.array([[1.0]]))
        assert model.weights[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert model.bias[0] == pytest.approx(1.0, abs=1e-15)

    def test_small_steps_never_increase_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            model, features, targets = random_problem(rng)
            model.eta = 1e-4
            before = loss(model, features, targets)
            sgd_step(model, features, targets)
            assert loss(model, features, targets) <= before

    def test_batch_permutation_leaves_update_invariant(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((5, 6))
        targets = rng.choice([-1.0, 1.0], size=(5, 4))
        perm = rng.permutation(5)
        a = init_model(6, 4, eta=0.3, seed=1)
        b = a.copy()
        sgd_step(a, feats, targets)
        sgd_step(b, feats[perm], targets[perm])
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)
        np.testing.assert_allclose(a.bias, b.bias, atol=1e-12)

    def test_nonfinite_parameters_abort_with_round_index(self):
        model = HashModel(np.array([[np.inf]]), np.zeros(1), eta=0.1, round=41)
        with pytest.raises(NumericFailureError) as err:
            sgd_step(model, np.array([[1.0]]), np.array([[1.0]]))
        assert err.value.round_index == 42

    @pytest.mark.parametrize("targets, error", [
        (np.ones((2, 4)), "targets have shape"),
    ], ids=["target-shape"])
    def test_bad_arguments_rejected_without_a_step(self, targets, error):
        model = init_model(5, 3, eta=0.2, seed=0)
        weights = model.weights.copy()
        with pytest.raises(ValueError, match=error):
            sgd_step(model, np.ones((2, 5)), targets)
        assert model.round == 0
        assert np.array_equal(model.weights, weights)

    def test_empty_block_rejected_without_a_step(self):
        model = init_model(3, 2, eta=0.1, seed=0)
        w = model.weights.copy()
        with pytest.raises(DimensionError, match="at least one"):
            sgd_step(model, np.zeros((0, 3)), np.zeros((0, 2)))
        assert np.array_equal(model.weights, w)
        assert model.round == 0


def pixel_rows(rng, n, d=784, density=0.25):
    """(n, d) rows of k/255 values with about ``density`` of them non-zero."""
    lit = rng.random((n, d)) < density
    return rng.integers(1, 256, size=(n, d)) * lit / 255.0


class TestSparseStep:
    """One-step calls on pixel rows give the dense oracle's bytes."""

    # Here and below, the id names the reference step's gradient factor.
    @pytest.mark.parametrize("reference_step", [dense_sgd_step], ids=["exact"])
    @pytest.mark.parametrize("r", [32, 128])
    def test_matches_dense_reference_every_step(self, r, reference_step):
        rng = np.random.default_rng(r)
        rows = pixel_rows(rng, 1000)
        assert ((rows != 0).sum(axis=1) * 2 < rows.shape[1]).all()
        codes = rng.choice([-1.0, 1.0], size=(10, r))
        model = init_model(rows.shape[1], r, eta=0.2, seed=r + 1)
        reference = model.copy()
        for i, label in enumerate(rng.integers(0, 10, len(rows))):
            x, t = rows[i:i + 1], codes[label:label + 1]
            sgd_step(model, x, t)
            reference_step(reference, x, t)
            assert np.array_equal(model.weights, reference.weights), i
            assert np.array_equal(model.bias, reference.bias), i
        assert model.round == reference.round == len(rows)

    def test_all_zero_row_moves_only_the_bias(self):
        model = init_model(20, 8, eta=0.2, seed=0)
        w, b = model.weights.tobytes(), model.bias.copy()
        sgd_step(model, np.zeros((1, 20)), np.ones((1, 8)))
        assert model.weights.tobytes() == w
        assert not np.array_equal(model.bias, b)
        assert model.round == 1

    def test_touched_row_overflow_aborts_with_round_index(self):
        # x has one lit pixel of 4.0 and e = -1 in every bit: the W update
        # eta * 2 * 4 overflows, the bias update eta * 2 does not.
        model = HashModel(np.zeros((6, 3)), np.zeros(3), eta=5e307, round=41)
        x = np.zeros((1, 6))
        x[0, 2] = 4.0
        with pytest.raises(NumericFailureError) as err:
            sgd_step(model, x, np.ones((1, 3)))
        assert err.value.round_index == 42
        assert np.isfinite(model.bias).all()

    @pytest.mark.parametrize("reference_step", [dense_sgd_step], ids=["exact"])
    @pytest.mark.parametrize("n, density", [(1, 1.0), (1, 0.75), (7, 0.25)])
    def test_dense_rows_and_blocks_match_reference(self, n, density,
                                                   reference_step):
        rng = np.random.default_rng(n)
        model = init_model(784, 32, eta=0.2, seed=5)
        reference = model.copy()
        for _ in range(50):
            x = pixel_rows(rng, n, density=density)
            t = rng.choice([-1.0, 1.0], size=(n, 32))
            sgd_step(model, x, t)
            reference_step(reference, x, t)
            assert np.array_equal(model.weights, reference.weights)
            assert np.array_equal(model.bias, reference.bias)


class TestBlockedStep:
    """Multi-step calls against a loop of dense single steps."""

    @pytest.mark.parametrize("reference_step", [per_step_sgd], ids=["exact"])
    @pytest.mark.parametrize("step_rows", [1, 7])
    @pytest.mark.parametrize("r", [32, 128])
    def test_matches_per_step_oracle(self, r, step_rows, reference_step):
        rng = np.random.default_rng(r + step_rows)
        rows = pixel_rows(rng, 2000)
        rows = rows[:len(rows) // step_rows * step_rows]
        codes = rng.choice([-1.0, 1.0], size=(10, r))
        targets = codes[rng.integers(0, 10, len(rows))]
        model = init_model(rows.shape[1], r, eta=0.01, seed=r + 1)
        start, reference = model.copy(), model.copy()
        block = BLOCK_ROWS // step_rows * step_rows
        for lo in range(0, len(rows), block):
            x, t = rows[lo:lo + block], targets[lo:lo + block]
            sgd_step(model, x, t, step_rows=step_rows)
            reference_step(reference, x, t, step_rows=step_rows)
        assert model.round == reference.round == len(rows) // step_rows
        assert relative_error(model.weights, reference.weights,
                              start.weights) <= BLOCK_TOLERANCE
        assert relative_error(model.bias, reference.bias,
                              start.bias) <= BLOCK_TOLERANCE

    @pytest.mark.parametrize("step_rows", [1, 3])
    def test_overflow_names_the_failing_step(self, step_rows):
        # Steps 1-4 have zero features and targets equal to a = 0, so they
        # change nothing.  Step 5 lights one pixel of 8.0 against +1
        # targets: its W update eta * (2/n) * 8 overflows, its bias update
        # eta * (2/n) * n does not.
        model = HashModel(np.zeros((6, 3)), np.zeros(3), eta=5e307, round=41)
        x = np.zeros((10 * step_rows, 6))
        t = np.zeros((10 * step_rows, 3))
        x[4 * step_rows, 2] = 8.0
        t[4 * step_rows:5 * step_rows] = 1.0
        reference = model.copy()
        with pytest.raises(NumericFailureError) as err:
            sgd_step(model, x, t, step_rows=step_rows)
        assert err.value.round_index == model.round == 41 + 5
        with pytest.raises(NumericFailureError):
            per_step_sgd(reference, x, t, step_rows=step_rows)
        # the replay leaves the state the per-step loop stops in
        assert reference.round == model.round
        assert np.array_equal(model.weights, reference.weights, equal_nan=True)
        assert np.array_equal(model.bias, reference.bias)

    @pytest.mark.parametrize("step_rows", [0, 3])
    def test_rows_must_split_into_steps(self, step_rows):
        model = init_model(4, 2, eta=0.1, seed=0)
        with pytest.raises(DimensionError, match="steps of"):
            sgd_step(model, np.ones((7, 4)), np.ones((7, 2)),
                     step_rows=step_rows)
        assert model.round == 0


class TestGradientOracle:
    def test_exact_factor_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            model, features, targets = random_problem(rng)
            grad_w, grad_b = step_gradients(model, features, targets)
            fd_w, fd_b = fd_gradients(model.weights, model.bias,
                                      features, targets)
            num = np.linalg.norm(grad_w - fd_w) + np.linalg.norm(grad_b - fd_b)
            den = max(np.linalg.norm(fd_w) + np.linalg.norm(fd_b), 1e-12)
            assert num / den < 1e-5

    def test_sigmoid_factor_is_not_the_gradient(self):
        rng = np.random.default_rng(12)
        failures = 0
        for _ in range(25):
            model, features, targets = random_problem(rng)
            grad_w, grad_b = step_gradients(
                model, features, targets,
                step=partial(dense_sgd_step, gradient="sigmoid"))
            fd_w, fd_b = fd_gradients(model.weights, model.bias,
                                      features, targets)
            num = np.linalg.norm(grad_w - fd_w) + np.linalg.norm(grad_b - fd_b)
            den = max(np.linalg.norm(fd_w) + np.linalg.norm(fd_b), 1e-12)
            if num / den > 1e-3:
                failures += 1
        assert failures >= 24


class TestTrainStream:
    def _handles(self, bits=8, order=16):
        book = HadamardCodebook.create(order, seed=3)
        reducer = LshReducer.create(order, bits, seed=4)
        return book, reducer

    def test_empty_stream_is_a_no_op(self):
        book, reducer = self._handles()
        model = init_model(5, 8, eta=0.2, seed=0)
        w = model.weights.copy()
        final = train_stream(model, [], book, reducer)
        assert np.array_equal(final.weights, w)
        assert final.round == 0

    def test_empty_batch_rejected_without_a_step(self):
        book, reducer = self._handles()
        model = init_model(5, 8, eta=0.2, seed=0)
        with pytest.raises(DimensionError, match="at least one feature row"):
            train_stream(model, [(np.zeros((0, 5)), [])], book, reducer)
        assert model.round == 0

    def test_round_counts_batches(self):
        book, reducer = self._handles()
        model = init_model(5, 8, eta=0.2, seed=0)
        rng = np.random.default_rng(0)
        batches = [(rng.standard_normal((1, 5)), [int(rng.integers(4))])
                   for _ in range(37)]
        final = train_stream(model, batches, book, reducer)
        assert final.round == 37

    def test_repeat_run_is_bitwise_identical(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((50, 5))
        labels = rng.integers(0, 4, 50)

        def run():
            book, reducer = self._handles()
            model = init_model(5, 8, eta=0.2, seed=0)
            batches = [(feats[i:i + 1], labels[i:i + 1]) for i in range(50)]
            return train_stream(model, batches, book, reducer)

        assert np.array_equal(run().weights, run().weights)

    @staticmethod
    def _per_step_snapshots(model, batches, book, reducer, milestones):
        """The stream as a loop of dense steps: (seen, round, W) at crossings."""
        codes = {}
        seen, snapshots = 0, []
        for features, labels in batches:
            targets = per_label_targets(labels, book, reducer, codes)
            dense_sgd_step(model, features, targets)
            seen += len(labels)
            if any(seen - len(labels) < m <= seen for m in milestones):
                snapshots.append((seen, model.round, model.weights.copy()))
        return snapshots

    @pytest.mark.parametrize("batch", [1, 7, BLOCK_ROWS, 200])
    def test_blocks_match_per_step_oracle_at_milestones(self, batch,
                                                        monkeypatch):
        # 999 rows leave a ragged last chunk for every batch size here, and
        # the milestones fall inside 128-row blocks.
        rng = np.random.default_rng(batch)
        rows = pixel_rows(rng, 999)
        labels = rng.integers(0, 10, len(rows))
        batches = [(rows[lo:lo + batch], labels[lo:lo + batch])
                   for lo in range(0, len(rows), batch)]
        milestones = (50, 333, 700, len(rows))
        start = init_model(rows.shape[1], 32, eta=0.01, seed=9)
        expected = self._per_step_snapshots(
            start.copy(), batches, *self._handles(32, 32), milestones)
        calls, real = [], learner.sgd_step

        def counted(model, features, targets, **kwargs):
            calls.append((len(features), kwargs["step_rows"]))
            return real(model, features, targets, **kwargs)

        monkeypatch.setattr(learner, "sgd_step", counted)
        # One stretch up to the batch in which each milestone falls.
        final, handles = start.copy(), self._handles(32, 32)
        stream, done, seen = iter(batches), 0, []
        for stop in sorted({-(-m // batch) for m in milestones}):
            train_stream(final, islice(stream, stop - done), *handles)
            done = stop
            seen.append((min(stop * batch, len(rows)), final.round,
                         final.weights.copy()))
        assert [s[:2] for s in seen] == [s[:2] for s in expected]
        assert final.round == len(batches)
        for (_n, _rnd, weights), (_, _, reference) in zip(seen, expected):
            assert relative_error(weights, reference,
                                  start.weights) <= BLOCK_TOLERANCE
        assert sum(rows for rows, _ in calls) == len(rows)
        assert all(rows <= max(batch, BLOCK_ROWS) for rows, _ in calls)
        if batch >= BLOCK_ROWS:
            # one step per call, the dense update byte for byte
            assert all(rows == step for rows, step in calls)
            assert final.weights.tobytes() == seen[-1][2].tobytes()
            assert final.weights.tobytes() == expected[-1][2].tobytes()

    def test_one_sgd_step_call_per_block(self, monkeypatch):
        # The benchmark's traced runs time one span per sgd_step call and
        # need at least one; a 300-row stream trained in stretches of 100
        # runs as at most ceil(300 / BLOCK_ROWS) + 2 blocks.
        calls, real = [], learner.sgd_step

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(learner, "sgd_step", counted)
        rng = np.random.default_rng(5)
        batches = [(rng.standard_normal((1, 5)), [int(rng.integers(4))])
                   for _ in range(300)]
        model = init_model(5, 8, eta=0.2, seed=0)
        handles, stream = self._handles(), iter(batches)
        for _ in range(3):
            train_stream(model, islice(stream, 100), *handles)
        assert 1 < len(calls) <= -(-300 // BLOCK_ROWS) + 2
        assert model.round == 300

    def test_propagates_codebook_exhaustion(self):
        book = HadamardCodebook.create(2, seed=0)
        reducer = LshReducer.create(2, 2, seed=0)
        model = init_model(3, 2, eta=0.2, seed=0)
        batches = [(np.ones((1, 3)), [label]) for label in range(3)]
        from hcoh import CodebookExhaustedError
        with pytest.raises(CodebookExhaustedError):
            train_stream(model, batches, book, reducer)
        assert model.round == 0     # the failing block ran none of its steps
