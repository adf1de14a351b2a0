import numpy as np
import pytest

from hcoh import (DimensionError, HadamardCodebook, HashModel, LshReducer,
                  NumericFailureError, TargetCodeTable, init_model, loss,
                  relaxed_codes, sgd_step, train_stream)


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


def step_gradients(model, features, targets, gradient="exact"):
    """Recover the analytic gradient from one eta=1 update."""
    probe = model.copy()
    probe.eta = 1.0
    w_before, b_before = probe.weights.copy(), probe.bias.copy()
    sgd_step(probe, features, targets, gradient=gradient)
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

    def test_empty_block_rejected_without_a_step(self):
        model = init_model(3, 2, eta=0.1, seed=0)
        w = model.weights.copy()
        with pytest.raises(DimensionError, match="at least one"):
            sgd_step(model, np.zeros((0, 3)), np.zeros((0, 2)))
        assert np.array_equal(model.weights, w)
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
            grad_w, grad_b = step_gradients(model, features, targets,
                                            gradient="sigmoid")
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
        final, snaps = train_stream(model, [], book, reducer)
        assert np.array_equal(final.weights, w)
        assert final.round == 0
        assert snaps == []

    def test_round_counts_batches(self):
        book, reducer = self._handles()
        model = init_model(5, 8, eta=0.2, seed=0)
        rng = np.random.default_rng(0)
        batches = [(rng.standard_normal((1, 5)), [int(rng.integers(4))])
                   for _ in range(37)]
        final, _ = train_stream(model, batches, book, reducer)
        assert final.round == 37

    def test_repeat_run_is_bitwise_identical(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((50, 5))
        labels = rng.integers(0, 4, 50)

        def run():
            book, reducer = self._handles()
            model = init_model(5, 8, eta=0.2, seed=0)
            batches = [(feats[i:i + 1], labels[i:i + 1]) for i in range(50)]
            final, _ = train_stream(model, batches, book, reducer)
            return final

        assert np.array_equal(run().weights, run().weights)

    def test_milestones_snapshot_at_crossings(self):
        book, reducer = self._handles()
        model = init_model(3, 8, eta=0.2, seed=0)
        rng = np.random.default_rng(2)
        batches = [(rng.standard_normal((3, 3)), rng.integers(0, 4, 3))
                   for _ in range(10)]  # 30 instances in steps of 3
        seen_at = []
        final, snaps = train_stream(model, batches, book, reducer,
                                    milestones=(5, 12, 30),
                                    hook=lambda seen, m: seen_at.append(seen))
        assert seen_at == [6, 12, 30]
        assert [s for s, _ in snaps] == [6, 12, 30]
        # snapshots are frozen copies, not views of the live model
        assert snaps[0][1].round < final.round

    def test_propagates_codebook_exhaustion(self):
        book = HadamardCodebook.create(2, seed=0)
        reducer = LshReducer.create(2, 2, seed=0)
        model = init_model(3, 2, eta=0.2, seed=0)
        batches = [(np.ones((1, 3)), [label]) for label in range(3)]
        from hcoh import CodebookExhaustedError
        with pytest.raises(CodebookExhaustedError):
            train_stream(model, batches, book, reducer)
