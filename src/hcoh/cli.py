"""Command-line interface: train, encode, evaluate, benchmark, curve.

Exit codes: 0 success, 2 configuration error, 3 data error (missing,
malformed, unreadable or unwritable files, mismatched shapes), 4 numeric
failure (a non-finite parameter after an update, or weights that
overflow a pre-activation); each error class carries its own as
``exit_code``.  A flag that sets a ``RunConfig`` field has no default of
its own: ``RunConfig`` decides what a flag left out means, and the
library's other rules stay in their modules too: ``data.load_mnist_dir``
finds and reads an MNIST directory, ``LshReducer.create`` bounds the
codebook and ``pipeline.check_repeats`` checks ``--repeats``.  An
output path that names one of the command's input files (an MNIST file
under --data-dir, plain or gzipped, included) or another of its outputs
is a configuration error, raised before any file is read or written.
Metric streams are JSON lines; tables go to stdout.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import checkpoint as ckpt
from . import codec, data
from .data import load_mnist_dir
from .errors import ConfigError, DimensionError, FormatError, HcohError
from .evaluation import evaluate
from .fileio import atomic_write
from .pipeline import RunConfig, check_repeats, run_repeats, run_training

ERROR_PREFIXES = {2: "config error", 3: "data error", 4: "numeric failure"}


def _load_dataset(args) -> data.Dataset:
    mnist = args.dataset == "mnist"
    flags = {"--data-dir": (args.data_dir, mnist),
             "--features": (args.features, not mnist),
             "--labels": (args.labels, not mnist)}
    stray = [flag for flag, (value, applies) in flags.items()
             if value is not None and not applies]
    if stray:
        raise ConfigError(
            f"--dataset {args.dataset} does not take {' or '.join(stray)}")
    if mnist:
        if not args.data_dir:
            raise ConfigError("--dataset mnist requires --data-dir")
        return load_mnist_dir(args.data_dir)
    if not (args.features and args.labels):
        raise ConfigError("--dataset dense requires --features and --labels")
    return data.load_dense(args.features, args.labels)


def _int_list(flag, text) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise ConfigError(
            f"{flag} must be comma-separated integers, got {text!r}") from None


def _config_from_args(args, **fields) -> RunConfig:
    """The validated RunConfig of the run flags given, updated by ``fields``."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
             if hasattr(args, f.name)}
    if "milestones" in given:
        given["milestones"] = _int_list("--milestones", given["milestones"])
    return RunConfig(**{**given, **fields}).validate()


def _check_outputs(args, outputs, inputs=()) -> None:
    """Refuse output paths that no directory holds or that name another file flag.

    ``outputs`` and ``inputs`` name file flags by their ``args``
    attribute; a flag left out is skipped.  With ``--dataset mnist``,
    both names of each MNIST file under ``--data-dir``
    (``data.mnist_candidates``) count as inputs too, whether they exist
    or not: a plain file written beside a gzipped one would be read in
    its place.  An output that resolves to an input or to another output
    raises ConfigError, and one whose directory does not exist raises
    NotADirectoryError.  Commands call this before reading or writing
    any file, so a run that would overwrite its own input or could not
    save its results fails before it starts.
    """
    named = {}  # resolved path -> the first flag that named it
    if getattr(args, "dataset", None) == "mnist" and args.data_dir:
        for pair in data.mnist_candidates(args.data_dir):
            for path in pair:
                named[os.path.realpath(path)] = f"--data-dir's {path.name}"
    for name in (*inputs, *outputs):
        path, flag = getattr(args, name), f"--{name}"
        if path is None:
            continue
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag and name in outputs:
            raise ConfigError(f"{flag} {path} names the same file as {other}")
    for path in filter(None, (getattr(args, name) for name in outputs)):
        if not Path(path).parent.is_dir():
            raise NotADirectoryError(
                f"{path}: {Path(path).parent} is not a directory")


def _write_records(path, records) -> None:
    atomic_write(path, ((json.dumps(rec, sort_keys=True) + "\n").encode()
                        for rec in records))


def _run_flag(parser, *names, **kwargs) -> None:
    """A flag that sets a RunConfig field: absent from args unless given."""
    parser.add_argument(*names, default=argparse.SUPPRESS, **kwargs)


def _add_common_train_flags(p, bits: bool) -> None:
    p.add_argument("--dataset", choices=("mnist", "dense"), required=True)
    p.add_argument("--data-dir", help="directory with the four MNIST IDX files")
    p.add_argument("--features", help="HCOHFEAT feature file (dense dataset)")
    p.add_argument("--labels", help="u32 label file (dense dataset)")
    if bits:  # hcoh benchmark takes its code lengths from --bits-list
        _run_flag(p, "--bits", type=int, help="code length r")
    _run_flag(p, "--eta", type=float, help="SGD learning rate")
    _run_flag(p, "--batch-size", type=int)
    _run_flag(p, "--seed", type=int, help="master seed")
    _run_flag(p, "--milestones",
              help="comma-separated instance counts for mAP-curve checkpoints")
    _run_flag(p, "--max-labels", type=int,
              help="declared lower bound on the number of stream labels")
    _run_flag(p, "--test-per-class", type=int)
    _run_flag(p, "--train-size", type=int, dest="train_subset", metavar="TRAIN_SIZE")
    _run_flag(p, "--k-prec", type=int)
    _run_flag(p, "--k-map", type=int)


def _cmd_train(args) -> int:
    config = _config_from_args(args)
    _check_outputs(args, ("checkpoint", "metrics"), ("features", "labels"))
    dataset = _load_dataset(args)
    result = run_training(dataset, config)
    ckpt.save_checkpoint(args.checkpoint, result.model, result.book,
                         result.reducer)
    _write_records(args.metrics, result.records + [result.summary])
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
    _check_outputs(args, ("out",), ("checkpoint", "features", "labels"))
    model, _book, _reducer = ckpt.load_checkpoint(args.checkpoint)
    features = data.load_dense(args.features, args.labels)
    try:
        codes = codec.encode(model, features.features, features.labels)
    except DimensionError as err:
        raise DimensionError(
            f"{args.features} and {args.checkpoint}: {err}") from err
    codec.save_code_set(args.out, codes)
    print(f"encoded {len(codes)} instances at {codes.length} bits -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    _check_outputs(args, ("out",), ("queries", "database"))
    queries = codec.load_code_set(args.queries)
    database = codec.load_code_set(args.database)
    try:
        report = evaluate(queries, database, k_prec=config.k_prec,
                          k_map=config.k_map)
    except DimensionError as err:
        raise DimensionError(
            f"{args.queries} and {args.database}: {err}") from err
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
    bits_list = _int_list("--bits-list", args.bits_list)
    if not bits_list:
        raise ConfigError("--bits-list must name at least one code length")
    check_repeats(args.repeats)
    configs = [_config_from_args(args, bits=bits) for bits in bits_list]
    _check_outputs(args, ("metrics",), ("features", "labels"))
    dataset = _load_dataset(args)
    rows, records = [], []
    for config in configs:
        results, aggregate = run_repeats(dataset, config, args.repeats)
        rows.append(aggregate)
        for res in results:
            records.extend(res.records + [res.summary])
        records.append(aggregate)
    if args.metrics:
        _write_records(args.metrics, records)
    table = [("mAP", "map_mean"), (f"P@{configs[0].k_prec}", "precision_mean")]
    if all(row["auc_mean"] is not None for row in rows):
        table.append(("AUC", "auc_mean"))
    print(" " * 12 + "".join(f"{b}-bit".rjust(10) for b in bits_list))
    for name, key in table:
        print(f"{name:<12}" + "".join(f"{row[key]:>10.3f}" for row in rows))
    return 0


def _cmd_curve(args) -> int:
    _check_outputs(args, ("out",), ("metrics",))
    points = []
    with open(args.metrics, "rb") as fh:
        for number, line in enumerate(fh, 1):
            where = f"{args.metrics} line {number}"
            try:
                rec = json.loads(line.decode())
            except UnicodeDecodeError:
                raise FormatError(f"{where}: not UTF-8 text") from None
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
    _add_common_train_flags(p_train, bits=True)
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
    _run_flag(p_eval, "--k-prec", type=int)
    _run_flag(p_eval, "--k-map", type=int)
    p_eval.add_argument("--out", help="optional JSONL output path")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_bench = sub.add_parser("benchmark", help="full protocol over several "
                             "code lengths with seeded repeats")
    _add_common_train_flags(p_bench, bits=False)
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


def _configure_logging() -> None:
    """Log to stderr at the level HCOH_LOG names, WARNING by default.

    The level is checked even when the root logger already has a
    handler, where ``logging.basicConfig`` does nothing.
    """
    name = os.environ.get("HCOH_LOG", "WARNING")
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        raise ConfigError(f"HCOH_LOG: unknown level {name!r}")
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (HcohError, OSError, ValueError) as exc:
        code = getattr(exc, "exit_code", HcohError.exit_code)
        print(f"{ERROR_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
