import gzip
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hcoh import (Dataset, HadamardCodebook, InvalidOrderError, LshReducer,
                  NumericFailureError, RunConfig, SplitSpec, derive_seeds, encode,
                  init_model, load_dense, load_labels, pack_bits, save_code_set,
                  save_dense, save_labels, split)
from hcoh import cli
from hcoh.checkpoint import load_checkpoint, save_checkpoint
from hcoh.cli import _config_from_args, build_parser, main
from hcoh.codec import CODE_MAGIC, BinaryCodeSet, load_code_set
from hcoh.data import MNIST_FILES
from tests.conftest import (blob_dataset, checkpoint_bytes, idx_image_bytes,
                            idx_label_bytes, save_over_cap_checkpoint)


@pytest.fixture(scope="module")
def dense_blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    ds = blob_dataset(n_classes=4, dim=8, per_class=150, seed=21)
    save_dense(root / "blobs.feat", ds.features)
    save_labels(root / "blobs.lab", ds.labels)
    return root


def train_args(root, out_dir, **overrides):
    args = {
        "--dataset": "dense",
        "--features": str(root / "blobs.feat"),
        "--labels": str(root / "blobs.lab"),
        "--bits": "16",
        "--eta": "0.2",
        "--seed": "5",
        "--max-labels": "4",
        "--test-per-class": "25",
        "--train-size": "400",
        "--k-prec": "50",
        "--milestones": "100,200,400",
        "--checkpoint": str(out_dir / "model.hcoh"),
        "--metrics": str(out_dir / "metrics.jsonl"),
    }
    args.update({k: str(v) for k, v in overrides.items()})
    flat = ["train"]
    for key, value in args.items():
        if value is not None:
            flat.extend([key, value])
    return flat


class TestTrain:
    def test_writes_checkpoint_and_milestone_records(self, dense_blobs, tmp_path):
        assert main(train_args(dense_blobs, tmp_path)) == 0
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        checkpoints = [r for r in records if r["record"] == "checkpoint"]
        assert [r["instances_seen"] for r in checkpoints] == [100, 200, 400]
        summary = records[-1]
        assert summary["record"] == "summary"
        assert 0.0 <= summary["auc"] <= 1.0
        assert (tmp_path / "model.hcoh").exists()

    def test_rerun_is_byte_identical(self, dense_blobs, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert main(train_args(dense_blobs, a)) == 0
        assert main(train_args(dense_blobs, b)) == 0
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "model.hcoh").read_bytes() == (b / "model.hcoh").read_bytes()

    def test_non_increasing_milestones_exit_config(self, dense_blobs, tmp_path):
        code = main(train_args(dense_blobs, tmp_path, **{"--milestones": "200,100"}))
        assert code == 2

    def test_bad_eta_exit_config(self, dense_blobs, tmp_path):
        assert main(train_args(dense_blobs, tmp_path, **{"--eta": "-0.1"})) == 2

    @pytest.mark.parametrize("eta", ["nan", "inf", "1e309"])
    def test_non_finite_eta_exit_config_before_loading(self, dense_blobs,
                                                       tmp_path, capsys, eta):
        # The feature file does not exist: exit 2 rather than 3 shows the
        # rate was rejected before any data was read.
        code = main(train_args(dense_blobs, tmp_path,
                               **{"--eta": eta,
                                  "--features": str(tmp_path / "nope.feat")}))
        assert code == 2
        assert "eta must be positive and finite" in capsys.readouterr().err

    def test_numeric_failure_exit_numeric(self, dense_blobs, tmp_path,
                                          monkeypatch, capsys):
        # tanh saturates before a finite rate overflows W on these blobs,
        # so the failure is raised in place of training.
        def fail(dataset, config):
            raise NumericFailureError(
                "non-finite parameters after update at round 1", round_index=1)

        monkeypatch.setattr(cli, "run_training", fail)
        assert main(train_args(dense_blobs, tmp_path)) == 4
        assert capsys.readouterr().err == (
            "numeric failure: non-finite parameters after update at round 1\n")

    def test_codebook_exhaustion_exit_config(self, dense_blobs, tmp_path):
        code = main(train_args(dense_blobs, tmp_path,
                               **{"--bits": "2", "--max-labels": "2"}))
        assert code == 2

    def test_order_above_cap_exit_config_before_loading(self, dense_blobs,
                                                        tmp_path, capsys):
        # The feature file does not exist: exit 2 rather than 3 shows the
        # order was rejected before any data was read.
        code = main(train_args(dense_blobs, tmp_path,
                               **{"--max-labels": str(2**21),
                                  "--features": str(tmp_path / "nope.feat")}))
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_table_above_cap_exit_config_before_loading(self, dense_blobs,
                                                        tmp_path, capsys):
        code = main(train_args(dense_blobs, tmp_path,
                               **{"--bits": str(2**16),
                                  "--features": str(tmp_path / "nope.feat")}))
        assert code == 2
        assert "target table" in capsys.readouterr().err

    def test_oversized_k_prec_exit_config_without_output(self, dense_blobs,
                                                         tmp_path, capsys):
        # 600 items less 25 test items per class leave 500 to retrieve.
        code = main(train_args(dense_blobs, tmp_path, **{"--k-prec": "501"}))
        assert code == 2
        assert "k_prec 501 exceeds retrieval size 500" in capsys.readouterr().err
        assert not (tmp_path / "model.hcoh").exists()
        assert not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("flag, value", [("--train-size", "-5"),
                                             ("--test-per-class", "0"),
                                             ("--test-per-class", "-1")])
    def test_bad_split_size_exit_config_before_loading(self, dense_blobs,
                                                       tmp_path, flag, value):
        # The feature file does not exist: exit 2 rather than 3 shows the
        # size was rejected before any data was read.
        code = main(train_args(dense_blobs, tmp_path,
                               **{flag: value,
                                  "--features": str(tmp_path / "nope.feat")}))
        assert code == 2

    def test_missing_feature_file_exit_data(self, dense_blobs, tmp_path):
        code = main(train_args(dense_blobs, tmp_path,
                               **{"--features": str(tmp_path / "nope.feat")}))
        assert code == 3

    def test_unwritable_checkpoint_exit_data(self, dense_blobs, tmp_path, capsys,
                                             monkeypatch):
        # The output directory is checked before any data is loaded, so no
        # training runs and no metrics are written for a run that cannot
        # save its checkpoint.
        calls = []
        monkeypatch.setattr(cli, "run_training",
                            lambda *args: calls.append(args))
        (tmp_path / "file").write_bytes(b"")
        code = main(train_args(dense_blobs, tmp_path,
                               **{"--checkpoint": tmp_path / "file" / "x.hcoh"}))
        assert code == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert calls == []
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_failed_checkpoint_write_writes_no_metrics(self, dense_blobs, tmp_path,
                                                       capsys, monkeypatch):
        def fail(*args):
            raise OSError("disk full")
        monkeypatch.setattr(cli.ckpt, "save_checkpoint", fail)
        assert main(train_args(dense_blobs, tmp_path)) == 3
        assert capsys.readouterr().err == "data error: disk full\n"
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_cut_gzip_image_file_exit_data(self, idx_dir, tmp_path, capsys):
        data_dir = tmp_path / "mnist"
        data_dir.mkdir()
        for name in MNIST_FILES.values():
            (data_dir / name).write_bytes((idx_dir / name).read_bytes())
        plain = data_dir / MNIST_FILES["train_images"]
        cut = plain.with_name(plain.name + ".gz")
        packed = gzip.compress(plain.read_bytes())
        cut.write_bytes(packed[:len(packed) // 2])
        plain.unlink()
        assert main(idx_train_args(data_dir, tmp_path)) == 3
        assert f"{cut}: damaged gzip data" in capsys.readouterr().err

    def test_non_gzip_label_file_exit_data(self, dense_blobs, tmp_path, capsys):
        labels = tmp_path / "blobs.lab.gz"
        labels.write_bytes((dense_blobs / "blobs.lab").read_bytes())
        assert main(train_args(dense_blobs, tmp_path, **{"--labels": labels})) == 3
        assert f"{labels}: damaged gzip data" in capsys.readouterr().err

    def test_missing_mnist_file_exit_data(self, idx_dir, tmp_path, capsys):
        data_dir = tmp_path / "mnist"
        data_dir.mkdir()
        for key, name in MNIST_FILES.items():
            if key != "test_labels":
                (data_dir / name).write_bytes((idx_dir / name).read_bytes())
        assert main(idx_train_args(data_dir, tmp_path)) == 3
        assert (f"missing MNIST file {MNIST_FILES['test_labels']}(.gz) under "
                f"{data_dir}") in capsys.readouterr().err

    def test_no_run_flags_give_run_config_defaults(self, tmp_path):
        args = build_parser().parse_args(
            ["train", "--dataset", "dense", "--checkpoint", str(tmp_path / "m"),
             "--metrics", str(tmp_path / "m.jsonl")])
        assert _config_from_args(args) == RunConfig()


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    """Small MNIST-named IDX pairs: four classes of 5x5 images whose pixels
    have per-class means."""
    root = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(31)
    for part, n in (("train", 240), ("test", 80)):
        labels = rng.integers(0, 4, n)
        means = rng.uniform(20, 235, size=(4, 5, 5))
        pixels = np.clip(means[labels] + rng.normal(0, 30, (n, 5, 5)), 0, 255)
        (root / MNIST_FILES[f"{part}_images"]).write_bytes(
            idx_image_bytes(pixels.astype(np.uint8)))
        (root / MNIST_FILES[f"{part}_labels"]).write_bytes(
            idx_label_bytes(labels))
    return root


def idx_train_args(root, out_dir):
    return ["train", "--dataset", "mnist", "--data-dir", str(root),
            "--bits", "8", "--seed", "3", "--max-labels", "4",
            "--test-per-class", "5", "--train-size", "100", "--k-prec", "10",
            "--checkpoint", str(out_dir / "idx.hcoh"),
            "--metrics", str(out_dir / "idx.jsonl")]


class TestDatasetFlags:
    """Each --dataset kind takes its own input flags and no other's."""

    @staticmethod
    def _args(dense_blobs, tmp_path, dataset):
        # Neither the feature file nor the MNIST directory exists: exit 2
        # rather than 3 shows the flags were checked before any data was read.
        if dataset == "dense":
            return train_args(dense_blobs, tmp_path,
                              **{"--features": tmp_path / "nope.feat"})
        return idx_train_args(tmp_path / "nope", tmp_path)

    @pytest.mark.parametrize("dataset, flag, value", [
        ("dense", "--data-dir", "mnist"),
        ("mnist", "--features", "x.feat"), ("mnist", "--labels", "x.lab"),
    ])
    def test_flag_of_the_other_kind_exit_config_before_loading(
            self, dense_blobs, tmp_path, capsys, dataset, flag, value):
        args = self._args(dense_blobs, tmp_path, dataset)
        assert main(args + [flag, value]) == 2
        assert capsys.readouterr().err == (
            f"config error: --dataset {dataset} does not take {flag}\n")

    @pytest.mark.parametrize("dataset, drop, error", [
        ("mnist", "--data-dir", "--dataset mnist requires --data-dir"),
        ("dense", "--labels", "--dataset dense requires --features and --labels"),
    ])
    def test_kind_without_its_inputs_exit_config(self, dense_blobs, tmp_path,
                                                 capsys, dataset, drop, error):
        args = self._args(dense_blobs, tmp_path, dataset)
        at = args.index(drop)
        assert main(args[:at] + args[at + 2:]) == 2
        assert capsys.readouterr().err == f"config error: {error}\n"

    def test_norm_is_an_unrecognized_argument(self, idx_dir, tmp_path, capsys):
        # IDX pixels have one scaling; others go through --dataset dense.
        with pytest.raises(SystemExit) as exc:
            main(idx_train_args(idx_dir, tmp_path) + ["--norm", "unit255"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --norm" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEncode:
    @pytest.fixture()
    def checkpoint(self, dense_blobs, tmp_path):
        main(train_args(dense_blobs, tmp_path))
        return tmp_path / "model.hcoh"

    def test_encode_round_trip_and_self_distance(self, dense_blobs, tmp_path, checkpoint):
        out = tmp_path / "codes.hcode"
        assert main(["encode", "--checkpoint", str(checkpoint),
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--out", str(out)]) == 0
        codes = load_code_set(out)
        assert len(codes) == 600
        model, _book, _reducer = load_checkpoint(checkpoint)
        blobs = load_dense(dense_blobs / "blobs.feat", dense_blobs / "blobs.lab")
        expected = encode(model, blobs.features, blobs.labels)
        assert codes.length == expected.length
        assert np.array_equal(codes.words, expected.words)
        assert np.array_equal(codes.labels, expected.labels)

    def test_reencode_is_byte_identical(self, dense_blobs, tmp_path, checkpoint):
        a, b = tmp_path / "a.hcode", tmp_path / "b.hcode"
        for out in (a, b):
            main(["encode", "--checkpoint", str(checkpoint),
                  "--features", str(dense_blobs / "blobs.feat"),
                  "--labels", str(dense_blobs / "blobs.lab"),
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_checkpoint_exit_data(self, dense_blobs, tmp_path, checkpoint):
        bad = tmp_path / "bad.hcoh"
        bad.write_bytes(b"ZZZZ" + checkpoint.read_bytes()[4:])
        code = main(["encode", "--checkpoint", str(bad),
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--out", str(tmp_path / "x.hcode")])
        assert code == 3

    def test_empty_feature_file_gives_empty_code_set(self, tmp_path, checkpoint):
        save_dense(tmp_path / "empty.feat", np.zeros((0, 8), dtype=np.float32))
        save_labels(tmp_path / "empty.lab", [])
        out = tmp_path / "empty.hcode"
        assert main(["encode", "--checkpoint", str(checkpoint),
                     "--features", str(tmp_path / "empty.feat"),
                     "--labels", str(tmp_path / "empty.lab"),
                     "--out", str(out)]) == 0
        assert out.stat().st_size == 17
        codes = load_code_set(out)
        assert (len(codes), codes.length) == (0, 16)

    def test_reducer_above_the_table_cap_exit_data(self, dense_blobs, tmp_path,
                                                    capsys):
        save_over_cap_checkpoint(tmp_path / "big.hcoh")
        out = tmp_path / "x.hcode"
        code = main(["encode", "--checkpoint", str(tmp_path / "big.hcoh"),
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--out", str(out)])
        assert code == 3
        assert "target table" in capsys.readouterr().err
        assert not out.exists()

    def test_reseeded_codebook_exit_data_naming_the_file(self, dense_blobs,
                                                         tmp_path, checkpoint,
                                                         capsys):
        model, book, reducer = load_checkpoint(checkpoint)
        book.seed += 1  # the assigned columns are not this seed's first draws
        reseeded = tmp_path / "reseeded.hcoh"
        with pytest.raises(InvalidOrderError,
                           match="the 4 assigned columns are not the first"):
            save_checkpoint(reseeded, model, book, reducer)
        assert not reseeded.exists()
        reseeded.write_bytes(checkpoint_bytes(model, book, reducer))
        out = tmp_path / "x.hcode"
        code = main(["encode", "--checkpoint", str(tmp_path / "reseeded.hcoh"),
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--out", str(out)])
        assert code == 3
        assert f"{tmp_path / 'reseeded.hcoh'}: the 4 assigned columns" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weights_exit_numeric(self, dense_blobs, tmp_path,
                                              checkpoint, capsys):
        model, book, reducer = load_checkpoint(checkpoint)
        model.weights[...] = 1e308
        save_checkpoint(tmp_path / "big.hcoh", model, book, reducer)
        out = tmp_path / "x.hcode"
        code = main(["encode", "--checkpoint", str(tmp_path / "big.hcoh"),
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--out", str(out)])
        assert code == 4
        assert "weights overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_names_both_dims(self, tmp_path, checkpoint, capsys):
        wide = tmp_path / "wide.feat"
        save_dense(wide, np.ones((4, 11), dtype=np.float32))
        save_labels(tmp_path / "wide.lab", [0, 1, 2, 3])
        code = main(["encode", "--checkpoint", str(checkpoint),
                     "--features", str(wide),
                     "--labels", str(tmp_path / "wide.lab"),
                     "--out", str(tmp_path / "x.hcode")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {wide} and {checkpoint}: features have "
                       f"shape (4, 11), expected (n, 8)\n")


class TestNonFiniteFeatures:
    @pytest.fixture()
    def rows(self, dense_blobs):
        """Row indices of the (test, retrieval, train) split of train_args."""
        labels = load_labels(dense_blobs / "blobs.lab")
        tagged = Dataset(np.arange(labels.size, dtype=float)[:, None], labels)
        spec = SplitSpec(25, 400, derive_seeds(5).split)
        return [part.features[:, 0].astype(int) for part in split(tagged, spec)]

    @staticmethod
    def poisoned(dense_blobs, tmp_path, row, value=np.nan):
        ds = load_dense(dense_blobs / "blobs.feat", dense_blobs / "blobs.lab")
        ds.features[row, 3] = value
        save_dense(tmp_path / "bad.feat", ds.features)
        return tmp_path / "bad.feat"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_training_row_exit_data_without_output(self, dense_blobs, tmp_path,
                                                   rows, capsys, value):
        _test, _retrieval, train = rows
        feats = self.poisoned(dense_blobs, tmp_path, train[0], value)
        assert main(train_args(dense_blobs, tmp_path, **{"--features": feats})) == 3
        assert "'train' holds non-finite" in capsys.readouterr().err
        assert not (tmp_path / "model.hcoh").exists()
        assert not (tmp_path / "metrics.jsonl").exists()

    @pytest.mark.parametrize("part", ["test", "retrieval"])
    def test_evaluated_row_exit_data_without_output(self, dense_blobs, tmp_path,
                                                    rows, capsys, part):
        test, retrieval, train = rows
        row = test[0] if part == "test" else np.setdiff1d(retrieval, train)[0]
        feats = self.poisoned(dense_blobs, tmp_path, row)
        assert main(train_args(dense_blobs, tmp_path, **{"--features": feats})) == 3
        assert "non-finite pre-activation" in capsys.readouterr().err
        assert not (tmp_path / "model.hcoh").exists()
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_overflowed_model_exit_numeric_without_output(self, dense_blobs,
                                                          tmp_path, capsys):
        # Finite features, but a rate of 1e308 leaves W so large that the
        # first evaluation's pre-activations overflow.
        assert main(train_args(dense_blobs, tmp_path, **{"--eta": "1e308"})) == 4
        assert "weights overflow" in capsys.readouterr().err
        assert not (tmp_path / "model.hcoh").exists()
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_encode_exit_data_without_output(self, dense_blobs, tmp_path):
        assert main(train_args(dense_blobs, tmp_path)) == 0
        out = tmp_path / "x.hcode"
        code = main(["encode", "--checkpoint", str(tmp_path / "model.hcoh"),
                     "--features", str(self.poisoned(dense_blobs, tmp_path, 17)),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()


class TestEvaluate:
    @pytest.fixture()
    def toy_codes(self, tmp_path):
        db_bits = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0]]
        database = BinaryCodeSet(pack_bits(db_bits), [0, 1, 0, 1], 4)
        queries = BinaryCodeSet(pack_bits([[0, 0, 0, 0]]), [0], 4)
        q, db = tmp_path / "q.hcode", tmp_path / "db.hcode"
        save_code_set(q, queries)
        save_code_set(db, database)
        return q, db

    def test_reproduces_alternating_ap_case(self, toy_codes, capsys):
        q, db = toy_codes
        assert main(["evaluate", "--queries", str(q), "--database", str(db),
                     "--k-prec", "4"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["map"] == pytest.approx(5 / 6, abs=1e-12)
        assert record["precision_at_k"] == pytest.approx(0.5)

    def test_optional_map_cutoff_reported(self, toy_codes, capsys):
        q, db = toy_codes
        assert main(["evaluate", "--queries", str(q), "--database", str(db),
                     "--k-prec", "2", "--k-map", "2"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["k_map"] == 2
        # relevant at ranks 1 and 3, two relevant total: AP@2 = (1/1) / 2
        assert record["map_at_k"] == pytest.approx(0.5)

    def test_out_writes_the_printed_record(self, toy_codes, tmp_path, capsys):
        q, db = toy_codes
        out = tmp_path / "eval.jsonl"
        assert main(["evaluate", "--queries", str(q), "--database", str(db),
                     "--k-prec", "4", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        assert out.read_text() == printed + "\n"

    def test_oversized_k_prec_exit_data(self, toy_codes):
        q, db = toy_codes
        assert main(["evaluate", "--queries", str(q), "--database", str(db),
                     "--k-prec", "500"]) == 3

    def test_mismatched_lengths_exit_data(self, toy_codes, tmp_path):
        q, db = toy_codes
        other = BinaryCodeSet(pack_bits([[0, 0]]), [0], 2)
        save_code_set(tmp_path / "o.hcode", other)
        assert main(["evaluate", "--queries", str(tmp_path / "o.hcode"),
                     "--database", str(db), "--k-prec", "2"]) == 3

    def test_mismatched_lengths_name_both_files(self, tmp_path, capsys):
        paths = []
        for bits in (16, 32):
            paths.append(tmp_path / f"c{bits}.hcode")
            save_code_set(paths[-1], BinaryCodeSet(
                pack_bits(np.ones((3, bits), dtype=np.uint8)), [0, 1, 0], bits))
        q, db = paths
        assert main(["evaluate", "--queries", str(q), "--database", str(db),
                     "--k-prec", "2"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {q} and {db}: code lengths differ: queries 16, "
            f"database 32\n")

    @pytest.mark.parametrize("flag", ["--k-prec", "--k-map"])
    def test_k_below_one_exit_config_before_loading(self, tmp_path, capsys, flag):
        # The code files do not exist: exit 2 rather than 3 shows the flag
        # was rejected before any file was read.
        assert main(["evaluate", "--queries", str(tmp_path / "nope.hcode"),
                     "--database", str(tmp_path / "nope.hcode"), flag, "0"]) == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"config error: {name} must be >= 1, got 0\n"

    @pytest.mark.parametrize("side", ["query", "database"])
    def test_empty_code_set_exit_data_naming_its_side(self, toy_codes, tmp_path,
                                                      capsys, side):
        empty = tmp_path / "empty.hcode"
        save_code_set(empty, BinaryCodeSet(pack_bits(np.zeros((0, 4))), [], 4))
        assert empty.stat().st_size == 17
        q, db = (empty, toy_codes[1]) if side == "query" else (toy_codes[0], empty)
        assert main(["evaluate", "--queries", str(q), "--database", str(db),
                     "--k-prec", "2"]) == 3
        assert capsys.readouterr().err == (
            f"data error: {q} and {db}: the {side} code set is empty\n")

    def test_zero_length_codes_exit_data(self, tmp_path, capsys):
        empty = tmp_path / "empty.hcode"
        empty.write_bytes(CODE_MAGIC + struct.pack("<BII", 1, 2, 0)
                          + np.zeros(2, dtype="<u4").tobytes())
        assert main(["evaluate", "--queries", str(empty),
                     "--database", str(empty), "--k-prec", "2"]) == 3
        assert "code length 0" in capsys.readouterr().err


class TestBenchmarkAndCurve:
    def test_benchmark_table_and_aggregate_records(self, dense_blobs, tmp_path, capsys):
        metrics = tmp_path / "bench.jsonl"
        code = main(["benchmark", "--dataset", "dense",
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--bits-list", "8,16", "--repeats", "2",
                     "--max-labels", "4", "--test-per-class", "10",
                     "--train-size", "200", "--k-prec", "20",
                     "--seed", "3", "--metrics", str(metrics)])
        assert code == 0
        table = capsys.readouterr().out
        assert "8-bit" in table and "16-bit" in table and "mAP" in table
        records = [json.loads(line) for line in metrics.read_text().splitlines()]
        aggregates = [r for r in records if r["record"] == "aggregate"]
        assert [a["bits"] for a in aggregates] == [8, 16]
        assert all(len(a["map_per_repeat"]) == 2 for a in aggregates)

    def test_benchmark_with_milestones_prints_auc_row(self, dense_blobs, capsys):
        code = main(["benchmark", "--dataset", "dense",
                     "--features", str(dense_blobs / "blobs.feat"),
                     "--labels", str(dense_blobs / "blobs.lab"),
                     "--bits-list", "8", "--repeats", "1", "--max-labels", "4",
                     "--test-per-class", "10", "--train-size", "200",
                     "--k-prec", "20", "--milestones", "100,200"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows[1:]] == ["mAP", "P@20", "AUC"]

    @pytest.mark.parametrize("flags, error", [
        (["--bits-list", f"8,{2**21}"], "exceeds the cap"),
        (["--repeats", "0"], "repeats must be >= 1, got 0"),
        (["--bits-list", ","], "--bits-list must name at least one code length"),
    ], ids=["order", "repeats", "no-bits"])
    def test_benchmark_checks_every_order_before_loading(self, tmp_path, capsys,
                                                         flags, error):
        # The feature file does not exist: exit 2 rather than 3 shows the
        # flags were checked before any data was read.
        code = main(["benchmark", "--dataset", "dense",
                     "--features", str(tmp_path / "nope.feat"),
                     "--labels", str(tmp_path / "nope.lab"), *flags])
        assert code == 2
        assert error in capsys.readouterr().err

    def test_non_integer_bits_list_exit_config(self, tmp_path, capsys):
        code = main(["benchmark", "--dataset", "dense",
                     "--features", str(tmp_path / "nope.feat"),
                     "--labels", str(tmp_path / "nope.lab"), "--bits-list", "8,x"])
        assert code == 2
        assert capsys.readouterr().err == ("config error: --bits-list must be "
                                           "comma-separated integers, got '8,x'\n")

    def test_benchmark_bits_reads_as_bits_list(self):
        # hcoh benchmark has no --bits of its own, so argparse's prefix
        # matching takes --bits for --bits-list.
        args = build_parser().parse_args(["benchmark", "--dataset", "dense",
                                          "--bits", "16"])
        assert args.bits_list == "16"
        assert not hasattr(args, "bits")

    def test_curve_csv_extraction(self, dense_blobs, tmp_path):
        main(train_args(dense_blobs, tmp_path))
        out = tmp_path / "curve.csv"
        assert main(["curve", "--metrics", str(tmp_path / "metrics.jsonl"),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "instances_seen,map"
        assert len(rows) == 4
        assert [int(r.split(",")[0]) for r in rows[1:]] == [100, 200, 400]

    @pytest.mark.parametrize("line, error", [
        ('{"record": "checkpoint", "map": 0.5}',
         "checkpoint record lacks ['instances_seen']"),
        ('{"record": "checkpoint", "instances_seen": 100}',
         "checkpoint record lacks ['map']"),
        ('[1, 2]', "not a JSON object"),
        ('{"record": ', "not JSON (Expecting value)"),
    ], ids=["no-instances", "no-map", "not-an-object", "not-json"])
    def test_malformed_curve_record_exit_data(self, tmp_path, capsys, line,
                                              error):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"record": "checkpoint", "instances_seen": 50, '
                           f'"map": 0.25}}\n{line}\n')
        out = tmp_path / "curve.csv"
        assert main(["curve", "--metrics", str(metrics), "--out", str(out)]) == 3
        assert f"metrics.jsonl line 2: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_binary_metrics_file_exit_data_naming_it(self, tmp_path, capsys):
        metrics = tmp_path / "model.hcoh"
        metrics.write_bytes(b"HCOH\x01\x80\x00\x00\n")
        out = tmp_path / "curve.csv"
        assert main(["curve", "--metrics", str(metrics), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {metrics} line 1: not UTF-8 text\n")
        assert not out.exists()

    def test_bad_log_level_exit_config_under_a_root_handler(self, tmp_path,
                                                           monkeypatch, capsys):
        # logging.basicConfig does nothing once the root logger has a
        # handler, as it has in a program that set up logging first.
        handler = logging.NullHandler()
        logging.getLogger().addHandler(handler)
        monkeypatch.setenv("HCOH_LOG", "bogus")
        try:
            code = main(["curve", "--metrics", str(tmp_path / "m.jsonl"),
                         "--out", str(tmp_path / "c.csv")])
        finally:
            logging.getLogger().removeHandler(handler)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: HCOH_LOG: unknown level 'bogus'\n")

    def test_bad_log_level_exit_config(self, tmp_path):
        # In a fresh process, as a user runs it, where the root logger has
        # no handler yet.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, HCOH_LOG="bogus", PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hcoh.cli", "curve",
             "--metrics", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "c.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: HCOH_LOG: ")
        assert "bogus" in proc.stderr


def run_flags(d, *outputs) -> list:
    """A small dense run on the copies in ``d``, then the output flags given."""
    return ["--dataset", "dense", "--features", f"{d}/blobs.feat",
            "--labels", f"{d}/blobs.lab", "--max-labels", "4",
            "--test-per-class", "25", "--train-size", "100", "--k-prec", "10",
            *outputs]


# (command line, the flag refused, its path, the flag it clashes with);
# {d} is the test's directory, and "{d}/./" checks that paths are resolved.
CLASHES = {
    "train-metrics-is-checkpoint": (
        ["train", *run_flags("{d}", "--checkpoint", "{d}/out.hcoh",
                             "--metrics", "{d}/./out.hcoh")],
        "--metrics", "{d}/./out.hcoh", "--checkpoint"),
    "train-metrics-is-features": (
        ["train", *run_flags("{d}", "--checkpoint", "{d}/out.hcoh",
                             "--metrics", "{d}/blobs.feat")],
        "--metrics", "{d}/blobs.feat", "--features"),
    "train-checkpoint-is-labels": (
        ["train", *run_flags("{d}", "--checkpoint", "{d}/./blobs.lab",
                             "--metrics", "{d}/out.jsonl")],
        "--checkpoint", "{d}/./blobs.lab", "--labels"),
    "encode-out-is-features": (
        ["encode", "--checkpoint", "{d}/saved.hcoh", "--features", "{d}/blobs.feat",
         "--labels", "{d}/blobs.lab", "--out", "{d}/blobs.feat"],
        "--out", "{d}/blobs.feat", "--features"),
    "encode-out-is-checkpoint": (
        ["encode", "--checkpoint", "{d}/saved.hcoh", "--features", "{d}/blobs.feat",
         "--labels", "{d}/blobs.lab", "--out", "{d}/./saved.hcoh"],
        "--out", "{d}/./saved.hcoh", "--checkpoint"),
    "evaluate-out-is-queries": (
        ["evaluate", "--queries", "{d}/q.hcode", "--database", "{d}/db.hcode",
         "--k-prec", "1", "--out", "{d}/q.hcode"],
        "--out", "{d}/q.hcode", "--queries"),
    "evaluate-out-is-database": (
        ["evaluate", "--queries", "{d}/q.hcode", "--database", "{d}/db.hcode",
         "--k-prec", "1", "--out", "{d}/./db.hcode"],
        "--out", "{d}/./db.hcode", "--database"),
    "benchmark-metrics-is-features": (
        ["benchmark", *run_flags("{d}", "--bits-list", "8", "--repeats", "1",
                                 "--metrics", "{d}/blobs.feat")],
        "--metrics", "{d}/blobs.feat", "--features"),
    "benchmark-metrics-is-labels": (
        ["benchmark", *run_flags("{d}", "--bits-list", "8", "--repeats", "1",
                                 "--metrics", "{d}/./blobs.lab")],
        "--metrics", "{d}/./blobs.lab", "--labels"),
    "curve-out-is-metrics": (
        ["curve", "--metrics", "{d}/metrics.jsonl", "--out", "{d}/metrics.jsonl"],
        "--out", "{d}/metrics.jsonl", "--metrics"),
    "curve-out-links-to-metrics": (
        ["curve", "--metrics", "{d}/metrics.jsonl", "--out", "{d}/link.jsonl"],
        "--out", "{d}/link.jsonl", "--metrics"),
}


class TestOutputNamesAnMnistFile:
    @pytest.mark.parametrize("command, flag", [("train", "--checkpoint"),
                                               ("benchmark", "--metrics")],
                             ids=["train", "benchmark"])
    @pytest.mark.parametrize("stored, named", [("", ""), (".gz", ".gz"), (".gz", "")],
                             ids=["plain", "gz", "plain-beside-gz"])
    def test_exit_config_and_the_directory_unchanged(self, idx_dir, tmp_path, capsys,
                                                     command, flag, stored, named):
        # An output over an IDX file, plain or gzipped, or a plain file
        # beside the gzipped one, which the next load would read instead.
        data_dir = tmp_path / "mnist"
        data_dir.mkdir()
        for name in MNIST_FILES.values():
            raw = (idx_dir / name).read_bytes()
            (data_dir / (name + stored)).write_bytes(gzip.compress(raw) if stored else raw)
        before = {p.name: p.read_bytes() for p in data_dir.iterdir()}
        target = data_dir / (MNIST_FILES["train_labels"] + named)
        outputs = {"train": ["--bits", "8", "--checkpoint", str(target),
                             "--metrics", str(tmp_path / "out.jsonl")],
                   "benchmark": ["--bits-list", "8", "--repeats", "1",
                                 "--metrics", str(target)]}
        assert main([command, "--dataset", "mnist", "--data-dir", str(data_dir),
                     "--max-labels", "4", "--test-per-class", "5", "--train-size",
                     "100", "--k-prec", "10", *outputs[command]]) == 2
        assert capsys.readouterr().err == (
            f"config error: {flag} {target} names the same file as "
            f"--data-dir's {target.name}\n")
        assert {p.name: p.read_bytes() for p in data_dir.iterdir()} == before
        assert not (tmp_path / "out.jsonl").exists()


class TestOutputNamesAnotherFile:
    @pytest.fixture()
    def files(self, dense_blobs, tmp_path):
        """Every command's inputs, copied or written into the test's directory."""
        for name in ("blobs.feat", "blobs.lab"):
            shutil.copy(dense_blobs / name, tmp_path / name)
        save_checkpoint(tmp_path / "saved.hcoh", init_model(8, 16, eta=0.2, seed=1),
                        HadamardCodebook.create(16, seed=2),
                        LshReducer.create(16, 16, seed=3))
        save_code_set(tmp_path / "q.hcode",
                      BinaryCodeSet(pack_bits([[0, 1, 0, 1]]), [0], 4))
        save_code_set(tmp_path / "db.hcode",
                      BinaryCodeSet(pack_bits([[0, 0, 0, 0], [1, 1, 1, 1]]), [0, 1], 4))
        (tmp_path / "metrics.jsonl").write_text(
            '{"record": "checkpoint", "instances_seen": 50, "map": 0.25}\n')
        (tmp_path / "link.jsonl").symlink_to("metrics.jsonl")
        return tmp_path

    @pytest.mark.parametrize("case", list(CLASHES))
    def test_exit_config_before_any_file_is_read_or_written(self, files, capsys,
                                                            case):
        argv, flag, path, other = CLASHES[case]
        before = {p.name: p.read_bytes() for p in files.iterdir()}
        assert main([arg.format(d=files) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"config error: {flag} {path.format(d=files)} names the same file "
            f"as {other}\n")
        assert {p.name: p.read_bytes() for p in files.iterdir()} == before
        assert (files / "link.jsonl").is_symlink()

    def test_inputs_may_name_the_same_file(self, files):
        assert main(["evaluate", "--queries", f"{files}/db.hcode",
                     "--database", f"{files}/./db.hcode", "--k-prec", "1",
                     "--out", f"{files}/eval.jsonl"]) == 0
        assert (files / "eval.jsonl").exists()

    def test_output_on_a_symlink_loop_is_written(self, files):
        # Resolving a path that loops does not fail: the loop is no input,
        # so the CSV replaces the link.
        (files / "loop-a").symlink_to("loop-b")
        (files / "loop-b").symlink_to("loop-a")
        assert main(["curve", "--metrics", f"{files}/metrics.jsonl",
                     "--out", f"{files}/loop-a"]) == 0
        assert (files / "loop-a").read_text().startswith("instances_seen,map\n")
