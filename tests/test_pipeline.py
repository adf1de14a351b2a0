import logging
import tracemalloc

import numpy as np
import pytest

from hcoh import (ConfigError, Dataset, FormatError, RunConfig, SplitSpec,
                  derive_seeds, encode, evaluate, run_repeats, run_training,
                  split, split_indices)
from hcoh import init_model, learner, pipeline
from tests.conftest import (blob_dataset, per_step_sgd, relative_error,
                            sparse_pixel_dataset)


def blob_config(**overrides):
    base = dict(bits=16, eta=0.2, batch_size=1, seed=3, test_per_class=50,
                train_subset=1000, k_prec=100, max_labels=4)
    base.update(overrides)
    return RunConfig(**base)


class TestDeriveSeeds:
    def test_deterministic_and_named(self):
        a = derive_seeds(7)
        b = derive_seeds(7)
        assert a == b
        assert a._fields == ("model", "codebook", "reducer", "split", "stream")

    def test_components_differ(self):
        seeds = derive_seeds(7)
        assert len(set(seeds)) == 5

    def test_repeats_reseed_everything(self):
        assert derive_seeds(7, repeat=0) != derive_seeds(7, repeat=1)
        assert derive_seeds(7, repeat=1) == derive_seeds(7, repeat=1)


class TestRunConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(bits=0), dict(eta=0.0), dict(batch_size=0),
        dict(milestones=(5, 5)), dict(milestones=(0,)),
        dict(max_labels=0), dict(k_prec=0), dict(k_map=0),
        dict(seed=-1), dict(repeat=-1),
        dict(max_labels=2**20 + 1), dict(bits=2**21),  # order above the cap
        dict(train_subset=-5), dict(test_per_class=0), dict(test_per_class=-1),
        dict(bits=2**16), dict(max_labels=2**20, bits=128),  # table above the cap
        dict(eta=np.nan), dict(eta=np.inf),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ConfigError):
            blob_config(**bad).validate()

    def test_order_at_cap_accepted(self):
        blob_config(max_labels=2**20).validate()

    def test_table_at_cap_accepted(self):
        blob_config(max_labels=2**20, bits=64).validate()


class TestRunTraining:
    def test_unstorable_label_rejected_before_training(self, blobs,
                                                       monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "split_indices",
                            lambda *args: calls.append(args))
        labels = blobs.labels.copy()
        labels[7] = -5
        with pytest.raises(FormatError, match="label -5"):
            run_training(Dataset(blobs.features, labels, "bad"), blob_config())
        assert calls == []

    def test_oversized_k_prec_rejected_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(learner, "sgd_step",
                            lambda *args, **kwargs: calls.append(args))
        config = blob_config(train_subset=2000, k_prec=5000)
        with pytest.raises(ConfigError, match="k_prec 5000 exceeds retrieval "
                                               "size 2200"):
            run_training(blob_dataset(seed=11), config)
        assert calls == []

    def test_k_prec_equal_to_retrieval_size_accepted(self, blobs):
        result = run_training(blobs, blob_config(train_subset=100, k_prec=2200))
        assert result.records[-1]["k_prec"] == 2200

    def test_learns_separable_blobs(self, blobs):
        result = run_training(blobs, blob_config(milestones=(250, 500, 1000)))
        assert result.summary["final_map"] > 0.95
        assert [r["instances_seen"] for r in result.records] == [250, 500, 1000]
        assert result.summary["auc"] is not None

    def test_final_record_added_when_stream_outruns_milestones(self, blobs):
        result = run_training(blobs, blob_config(milestones=(250,)))
        assert [r["instances_seen"] for r in result.records] == [250, 1000]

    def test_no_milestones_single_final_record_no_auc(self, blobs):
        result = run_training(blobs, blob_config())
        assert [r["instances_seen"] for r in result.records] == [1000]
        assert result.summary["auc"] is None

    def test_milestones_snapshot_at_crossings(self, blobs):
        # Batches of 3: milestones 5 and 6 fall in batch 2, 12 in batch 4,
        # and 30 and 5000 (past the stream) in the last, batch 10.
        result = run_training(blobs, blob_config(
            batch_size=3, train_subset=30, milestones=(5, 6, 12, 30, 5000)))
        assert [r["instances_seen"] for r in result.records] == [6, 12, 30]
        assert result.model.round == 10

    def test_empty_training_split_gives_one_record_at_zero(self, blobs):
        result = run_training(blobs, blob_config(train_subset=0,
                                                 milestones=(5, 10)))
        assert [r["instances_seen"] for r in result.records] == [0]
        assert result.model.round == 0

    def test_identity_reducer_when_bits_cover_labels(self, blobs):
        result = run_training(blobs, blob_config())
        assert result.reducer.is_identity
        assert result.book.order == 16

    def test_gaussian_reducer_when_bits_below_label_bound(self, blobs):
        result = run_training(blobs, blob_config(bits=8, max_labels=10))
        assert not result.reducer.is_identity
        assert result.book.order == 16
        assert result.reducer.table.shape == (16, 8)

    @pytest.mark.parametrize("bits, max_labels, advice", [
        (16, 4, None),
        (8, 10, "a --max-labels of at most 8 keeps them orthogonal while the "
                "stream has at most 8 labels"),
        (12, 4, "orthogonal targets need a code length that is a power of two, "
                "at least 2, which 12 is not"),
    ], ids=["identity", "gaussian", "gaussian-not-a-power-of-two"])
    def test_one_warning_when_the_order_exceeds_bits(self, blobs, caplog, bits,
                                                     max_labels, advice):
        with caplog.at_level(logging.WARNING, logger="hcoh"):
            run_training(blobs, blob_config(bits=bits, max_labels=max_labels))
        expected = [] if advice is None else [
            f"codeword order 16 exceeds {bits} bits, so the targets are "
            f"Gaussian-LSH codes, distributed like i.i.d. random codes rather "
            f"than orthogonal Hadamard columns; {advice}"]
        assert [rec.getMessage() for rec in caplog.records
                if rec.levelno >= logging.WARNING] == expected

    def test_repeat_runs_are_identical(self, blobs):
        a = run_training(blobs, blob_config(milestones=(500, 1000)))
        b = run_training(blobs, blob_config(milestones=(500, 1000)))
        assert a.records == b.records
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_different_master_seeds_differ(self, blobs):
        a = run_training(blobs, blob_config(seed=1))
        b = run_training(blobs, blob_config(seed=2))
        assert not np.array_equal(a.model.weights, b.model.weights)

    def test_round_counts_stream_batches(self, blobs):
        result = run_training(blobs, blob_config())
        assert result.model.round == 1000

    def test_map_cutoff_flows_through(self, blobs):
        result = run_training(blobs, blob_config(k_map=50))
        assert result.records[-1]["k_map"] == 50
        assert 0.0 <= result.records[-1]["map_at_k"] <= 1.0


    @pytest.mark.parametrize("reference_step", [per_step_sgd], ids=["exact"])
    def test_blocked_training_matches_per_step_loop(self, sparse_pixels,
                                                    monkeypatch, reference_step):
        def both(eta, seed):
            config = blob_config(bits=32, eta=eta, seed=seed,
                                 milestones=(250, 500, 1000))
            blocked = run_training(sparse_pixels, config)
            with monkeypatch.context() as patch:
                patch.setattr(learner, "sgd_step", reference_step)
                per_step = run_training(sparse_pixels, config)
            assert blocked.model.round == per_step.model.round == 1000
            return blocked, per_step

        blocked, per_step = both(0.01, 3)
        start = init_model(sparse_pixels.features.shape[1], 32, 0.01,
                           blocked.seeds.model)
        assert relative_error(blocked.model.weights, per_step.model.weights,
                              start.weights) <= 1e-10
        # At eta = 0.2 training is chaotic: a change of rounding moves one
        # seed's final mAP by up to about 0.05 either way, so the
        # tolerance holds for the mean over eight seeds.
        finals = np.array([[run.summary["final_map"] for run in both(0.2, seed)]
                           for seed in range(3, 11)])
        blocked_map, per_step_map = finals.mean(axis=0)
        assert abs(blocked_map - per_step_map) <= 0.03

    @pytest.mark.parametrize("make", [blob_dataset, sparse_pixel_dataset])
    def test_final_record_matches_separately_encoded_split(self, make):
        dataset = make()
        config = blob_config(bits=32, milestones=(500,))
        result = run_training(dataset, config)
        test, retrieval, _train = split(dataset, SplitSpec(
            config.test_per_class, config.train_subset, result.seeds.split))
        report = evaluate(encode(result.model, test.features, test.labels),
                          encode(result.model, retrieval.features,
                                 retrieval.labels),
                          k_prec=config.k_prec)
        assert result.records[-1] == {"record": "checkpoint",
                                      "instances_seen": 1000,
                                      **report.to_record()}

    def test_non_finite_retrieval_row_named_by_dataset_index(self, blobs):
        config = blob_config()
        _test, retrieval_idx, train_idx = split_indices(blobs, SplitSpec(
            config.test_per_class, config.train_subset,
            derive_seeds(config.seed).split))
        row = np.setdiff1d(retrieval_idx, train_idx)[-1]
        blobs.features[row, 2] = np.nan
        with pytest.raises(ValueError, match=rf"\(first row {row}\)"):
            run_training(blobs, config)

    def test_peak_memory_stays_below_one_feature_matrix(self):
        rng = np.random.default_rng(8)
        labels = np.repeat(np.arange(10), 600)
        dataset = Dataset(rng.random((labels.size, 256)), labels, "wide")
        config = blob_config(bits=32, max_labels=10, test_per_class=20,
                             train_subset=2000, milestones=(1000,))
        tracemalloc.start()
        try:
            run_training(dataset, config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dataset.features.nbytes


class TestRunRepeats:
    def test_aggregate_means(self, blobs):
        results, aggregate = run_repeats(blobs, blob_config(), repeats=3)
        assert len(results) == 3
        assert aggregate["map_mean"] == pytest.approx(
            np.mean(aggregate["map_per_repeat"]))
        seeds = {tuple(r.seeds) for r in results}
        assert len(seeds) == 3

    def test_rejects_bad_repeat_count(self, blobs):
        with pytest.raises(ConfigError):
            run_repeats(blobs, blob_config(), repeats=0)
