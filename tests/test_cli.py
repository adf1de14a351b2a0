import json
import struct

import numpy as np
import pytest

from hcoh import (Dataset, SplitSpec, derive_seeds, encode, load_dense,
                  load_labels, pack_bits, save_code_set, save_dense,
                  save_labels, split)
from hcoh.checkpoint import load_checkpoint
from hcoh.cli import MNIST_FILES, main
from hcoh.codec import CODE_MAGIC, BinaryCodeSet, load_code_set
from tests.conftest import blob_dataset
from tests.test_data import idx_image_bytes, idx_label_bytes


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

    def test_infinite_eta_exit_numeric(self, dense_blobs, tmp_path):
        assert main(train_args(dense_blobs, tmp_path, **{"--eta": "1e309"})) == 4

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


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    """Small MNIST-named IDX pairs: four classes of 5x5 images whose pixels
    have per-class means, so z-scoring changes the features' geometry."""
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


def idx_train_args(root, out_dir, norm):
    return ["train", "--dataset", "mnist", "--data-dir", str(root),
            "--norm", norm, "--bits", "8", "--seed", "3", "--max-labels", "4",
            "--test-per-class", "5", "--train-size", "100", "--k-prec", "10",
            "--checkpoint", str(out_dir / f"{norm}.hcoh"),
            "--metrics", str(out_dir / f"{norm}.jsonl")]


class TestNorm:
    def test_norm_modes_write_different_checkpoints(self, idx_dir, tmp_path):
        for norm in ("zscore", "unit255"):
            assert main(idx_train_args(idx_dir, tmp_path, norm)) == 0
        assert ((tmp_path / "zscore.hcoh").read_bytes()
                != (tmp_path / "unit255.hcoh").read_bytes())

    def test_unknown_norm_exit_config(self, idx_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(idx_train_args(idx_dir, tmp_path, "l2"))
        assert exc.value.code == 2
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

    def test_dimension_mismatch_names_both_dims(self, tmp_path, checkpoint, capsys):
        save_dense(tmp_path / "wide.feat", np.ones((4, 11), dtype=np.float32))
        save_labels(tmp_path / "wide.lab", [0, 1, 2, 3])
        code = main(["encode", "--checkpoint", str(checkpoint),
                     "--features", str(tmp_path / "wide.feat"),
                     "--labels", str(tmp_path / "wide.lab"),
                     "--out", str(tmp_path / "x.hcode")])
        assert code == 3
        err = capsys.readouterr().err
        assert "11" in err and "8" in err


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

    def test_benchmark_checks_every_order_before_loading(self, tmp_path, capsys):
        code = main(["benchmark", "--dataset", "dense",
                     "--features", str(tmp_path / "nope.feat"),
                     "--labels", str(tmp_path / "nope.lab"),
                     "--bits-list", f"8,{2**21}"])
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err

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
    ], ids=["no-instances", "no-map", "not-an-object"])
    def test_malformed_curve_record_exit_data(self, tmp_path, capsys, line,
                                              error):
        metrics = tmp_path / "metrics.jsonl"
        metrics.write_text('{"record": "checkpoint", "instances_seen": 50, '
                           f'"map": 0.25}}\n{line}\n')
        out = tmp_path / "curve.csv"
        assert main(["curve", "--metrics", str(metrics), "--out", str(out)]) == 3
        assert f"metrics.jsonl line 2: {error}" in capsys.readouterr().err
        assert not out.exists()
