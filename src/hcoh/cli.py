"""Command-line interface: train, encode, evaluate, benchmark, curve.

Exit codes: 0 success, 2 configuration error, 3 data error (missing or
malformed files, mismatched shapes), 4 numeric failure during training.
Metric streams are JSON lines; tables go to stdout.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import checkpoint as ckpt
from . import codec, data
from .errors import (CodebookExhaustedError, ConfigError, FormatError,
                     HcohError, NumericFailureError)
from .evaluation import evaluate
from .fileio import atomic_write
from .pipeline import RunConfig, run_repeats, run_training

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _find_mnist_file(directory: Path, stem: str) -> Path:
    for candidate in (directory / stem, directory / (stem + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"missing MNIST file {stem}(.gz) under {directory}")


def load_mnist_dir(directory, norm: str = "unit255") -> data.Dataset:
    """All 70K MNIST instances: the train IDX pair's rows, then the test pair's.

    Each of the two image files is normalised on its own, straight into
    its rows of the one float64 feature matrix: with ``norm="zscore"``
    the train rows are standardized by the train file's per-pixel mean
    and std, and the test rows by the test file's.
    """
    directory = Path(directory)
    train, test = ((_find_mnist_file(directory, MNIST_FILES[f"{part}_images"]),
                    _find_mnist_file(directory, MNIST_FILES[f"{part}_labels"]))
                   for part in ("train", "test"))
    dataset = data.load_idx(*train, norm=norm, extra_pairs=[test])
    dataset.name = "mnist"
    return dataset


def _load_dataset(args) -> data.Dataset:
    if args.dataset == "mnist":
        if not args.data_dir:
            raise ConfigError("--dataset mnist requires --data-dir")
        return load_mnist_dir(args.data_dir, norm=args.norm)
    if not (args.features and args.labels):
        raise ConfigError("--dataset dense requires --features and --labels")
    return data.load_dense(args.features, args.labels)


def _parse_milestones(text):
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ConfigError(f"--milestones must be comma-separated integers, got {text!r}")


def _config_from_args(args, repeat: int = 0) -> RunConfig:
    return RunConfig(
        bits=args.bits, eta=args.eta, batch_size=args.batch_size,
        seed=args.seed, repeat=repeat,
        milestones=_parse_milestones(args.milestones),
        max_labels=args.max_labels,
        test_per_class=args.test_per_class, train_subset=args.train_size,
        k_prec=args.k_prec, k_map=args.k_map,
        gradient="sigmoid" if args.paper_gradient else "exact",
    ).validate()


def _write_records(path, records) -> None:
    atomic_write(path, ((json.dumps(rec, sort_keys=True) + "\n").encode()
                        for rec in records))


def _add_common_train_flags(p) -> None:
    p.add_argument("--dataset", choices=("mnist", "dense"), required=True)
    p.add_argument("--data-dir", help="directory with the four MNIST IDX files")
    p.add_argument("--features", help="HCOHFEAT feature file (dense dataset)")
    p.add_argument("--labels", help="u32 label file (dense dataset)")
    p.add_argument("--bits", type=int, default=32, help="code length r")
    p.add_argument("--eta", type=float, default=0.2, help="SGD learning rate")
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--milestones", default="",
                   help="comma-separated instance counts for mAP-curve checkpoints")
    p.add_argument("--norm", choices=data.NORM_MODES, default="unit255")
    p.add_argument("--max-labels", type=int, default=2,
                   help="declared lower bound on the number of stream labels")
    p.add_argument("--test-per-class", type=int, default=100)
    p.add_argument("--train-size", type=int, default=20000)
    p.add_argument("--k-prec", type=int, default=500)
    p.add_argument("--k-map", type=int, default=None)
    p.add_argument("--paper-gradient", action="store_true",
                   help="use the (1 - tanh(u)) * tanh(u) gradient factor instead "
                        "of the exact tanh derivative 1 - tanh(u)^2")


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    dataset = _load_dataset(args)
    result = run_training(dataset, config)
    _write_records(args.metrics, result.records + [result.summary])
    ckpt.save_checkpoint(args.checkpoint, result.model, result.book,
                         result.reducer)
    print(f"codeword order {result.summary['codeword_order']}, "
          f"{result.summary['reducer']} reducer")
    print(f"trained on {config.train_subset} instances: "
          f"mAP={result.summary['final_map']:.4f} "
          f"P@{config.k_prec}={result.summary['final_precision_at_k']:.4f}"
          + (f" AUC={result.summary['auc']:.4f}"
             if result.summary["auc"] is not None else ""))
    print(f"checkpoint: {args.checkpoint}")
    print(f"metrics:    {args.metrics}")
    return 0


def _cmd_encode(args) -> int:
    model, _book, _reducer = ckpt.load_checkpoint(args.checkpoint)
    features = data.load_dense(args.features, args.labels)
    codes = codec.encode(model, features.features, features.labels)
    codec.save_code_set(args.out, codes)
    print(f"encoded {len(codes)} instances at {codes.length} bits -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    queries = codec.load_code_set(args.queries)
    database = codec.load_code_set(args.database)
    report = evaluate(queries, database, k_prec=args.k_prec, k_map=args.k_map)
    record = report.to_record()
    print(json.dumps(record, sort_keys=True))
    print(f"{'metric':<18}{'value':>10}")
    print(f"{'mAP':<18}{report.map:>10.4f}")
    if report.k_map is not None:
        print(f"{'mAP@' + str(report.k_map):<18}{report.map_at_k:>10.4f}")
    print(f"{'P@' + str(report.k_prec):<18}{report.precision_at_k:>10.4f}")
    if args.out:
        _write_records(args.out, [record])
    return 0


def _cmd_benchmark(args) -> int:
    bits_list = [int(tok) for tok in args.bits_list.split(",") if tok]
    if not bits_list:
        raise ConfigError("--bits-list must name at least one code length")
    configs = []
    for bits in bits_list:
        args.bits = bits
        configs.append(_config_from_args(args))
    dataset = _load_dataset(args)
    rows = []
    records = []
    for config in configs:
        results, aggregate = run_repeats(dataset, config, args.repeats)
        rows.append(aggregate)
        for res in results:
            records.extend(res.records + [res.summary])
        records.append(aggregate)
    if args.metrics:
        _write_records(args.metrics, records)
    name_w = 12
    print(f"{'':<{name_w}}" + "".join(f"{b}-bit".rjust(10) for b in bits_list))
    print(f"{'mAP':<{name_w}}"
          + "".join(f"{row['map_mean']:>10.3f}" for row in rows))
    print(f"{'P@' + str(args.k_prec):<{name_w}}"
          + "".join(f"{row['precision_mean']:>10.3f}" for row in rows))
    if all(row["auc_mean"] is not None for row in rows):
        print(f"{'AUC':<{name_w}}"
              + "".join(f"{row['auc_mean']:>10.3f}" for row in rows))
    return 0


def _cmd_curve(args) -> int:
    points = []
    with open(args.metrics) as fh:
        for number, line in enumerate(fh, 1):
            where = f"{args.metrics} line {number}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: not JSON ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise FormatError(f"{where}: not a JSON object")
            if rec.get("record") != "checkpoint":
                continue
            missing = [key for key in ("instances_seen", "map") if key not in rec]
            if missing:
                raise FormatError(f"{where}: checkpoint record lacks {missing}")
            points.append((rec["instances_seen"], rec["map"]))
    atomic_write(args.out, [b"instances_seen,map\n"]
                 + [f"{x},{y!r}\n".encode() for x, y in points])
    print(f"wrote {len(points)} curve points -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcoh",
        description="Streaming supervised binary-code learning with Hadamard "
                    "codeword targets, and Hamming-ranking evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="stream-train hash functions, "
                             "evaluate at milestones, write a checkpoint")
    _add_common_train_flags(p_train)
    p_train.add_argument("--checkpoint", required=True)
    p_train.add_argument("--metrics", required=True, help="JSONL output path")
    p_train.set_defaults(func=_cmd_train)

    p_enc = sub.add_parser("encode", help="hash a feature file through a "
                           "checkpointed model into a code-set file")
    p_enc.add_argument("--checkpoint", required=True)
    p_enc.add_argument("--features", required=True)
    p_enc.add_argument("--labels", required=True)
    p_enc.add_argument("--out", required=True)
    p_enc.set_defaults(func=_cmd_encode)

    p_eval = sub.add_parser("evaluate", help="Hamming-ranking metrics of a "
                            "query code set against a database code set")
    p_eval.add_argument("--queries", required=True)
    p_eval.add_argument("--database", required=True)
    p_eval.add_argument("--k-prec", type=int, default=500)
    p_eval.add_argument("--k-map", type=int, default=None)
    p_eval.add_argument("--out", help="optional JSONL output path")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bench = sub.add_parser("benchmark", help="full protocol over several "
                             "code lengths with seeded repeats")
    _add_common_train_flags(p_bench)
    p_bench.add_argument("--bits-list", default="8,16,32,64,128",
                         help="comma-separated code lengths")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--metrics", help="optional JSONL output path")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_curve = sub.add_parser("curve", help="extract mAP-vs-instances CSV "
                             "from a metrics JSONL file")
    p_curve.add_argument("--metrics", required=True)
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(func=_cmd_curve)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("HCOH_LOG", "WARNING"),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CodebookExhaustedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileNotFoundError, IsADirectoryError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except HcohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
