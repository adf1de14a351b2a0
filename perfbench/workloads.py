"""The measured process of one benchmark workload.

Started by ``run.py`` with ``src`` on PYTHONPATH and the thread settings
fixed in its environment; it reads inputs that ``gen.py`` already wrote:

    python3 perfbench/workloads.py --workload NAME --data DIR --seed N
        --seconds S --trace 0|1 --out DIR [--size full|tiny]

It loads the inputs several times (set-up), then repeats the timed body
until ``--seconds`` are used up, then runs the correctness checks.  With
``--trace 1`` untraced and traced repetitions alternate, so the trace
overhead is measured inside one process and the records of the two can
be compared byte for byte.  The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hcoh import checkpoint, cli, codec, data, evaluation, pipeline

import oracle
import tracing
from spec import WORKLOADS, Workload, config_for

ORACLE_QUERIES = 32


def load(kind: str, directory: Path) -> data.Dataset:
    if kind == "mnist":
        return cli.load_mnist_dir(directory)
    return data.load_dense(directory / "features.hcohfeat",
                           directory / "labels.u32")


@dataclass
class Outcome:
    result: pipeline.TrainResult
    model: object      # model as reloaded from the checkpoint
    codes: object      # code set as reloaded from its file
    checkpoint_bytes: int


def body(dataset, workload: Workload, config: pipeline.RunConfig, work: Path) -> Outcome:
    """`hcoh train` then `hcoh encode`, as library calls."""
    result = pipeline.run_training(dataset, config)
    model_path, codes_path = work / "model.hcoh", work / "codes.hcohcode"
    checkpoint.save_checkpoint(model_path, result.model, result.book, result.reducer)
    # The two commands are separate processes: training's codebook is gone
    # before encoding loads its own.
    result.book = result.reducer = None
    model, _book, _reducer = checkpoint.load_checkpoint(model_path)
    rows = slice(workload.encode_rows)
    codes = codec.encode(model, dataset.features[rows], dataset.labels[rows])
    codec.save_code_set(codes_path, codes)
    return Outcome(result, model, codec.load_code_set(codes_path),
                   model_path.stat().st_size)


def record_bytes(result) -> bytes:
    """The metrics stream `hcoh train` would write for this result."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n"
                   for rec in result.records + [result.summary]).encode()


# --- correctness checks --------------------------------------------------

def oracle_problems(dataset, config, model, seed):
    """Oracle against ``evaluate`` on a seeded sample of queries.

    Returns (problems, number of distinct database codes).
    """
    test, retrieval, _train = data.split(dataset, data.SplitSpec(
        config.test_per_class, config.train_subset,
        pipeline.derive_seeds(config.seed, config.repeat).split))
    sample = np.sort(np.random.default_rng(seed).choice(
        len(test), size=min(ORACLE_QUERIES, len(test)), replace=False))
    queries = codec.encode(model, test.features[sample], test.labels[sample])
    database = codec.encode(model, retrieval.features, retrieval.labels)
    problems = []
    for name, codes, feats in (("query", queries, test.features[sample]),
                               ("database", database, retrieval.features)):
        direct = feats @ model.weights + model.bias >= 0
        if not np.array_equal(oracle.unpack(codes.words, codes.length), direct):
            problems.append(f"{name} codes differ from sign(W.T x + b)")
    report = evaluation.evaluate(queries, database, k_prec=config.k_prec)
    problems += oracle.check(queries, database, report, config.k_prec)
    distinct = int(np.unique(database.words, axis=0).shape[0])
    return problems, distinct


def run_checks(dataset, config, outcome, records, seed):
    """Each check's name mapped to a list of problems (empty = passed)."""
    result = outcome.result
    n_classes = int(np.unique(dataset.labels).shape[0])
    n_q = config.test_per_class * n_classes
    checks = {
        "records_identical": [] if all(r == records[0] for r in records)
        else [f"{len(set(records))} distinct record streams over {len(records)} runs"],
        "stream_length": [] if result.model.round == config.train_subset
        else [f"model.round {result.model.round} != {config.train_subset}"],
        "split_sizes": [f"record has {rec['n_queries']} queries and "
                        f"{rec['n_database']} database items, split has "
                        f"{n_q} and {len(dataset) - n_q}"
                        for rec in result.records
                        if (rec["n_queries"], rec["n_database"])
                        != (n_q, len(dataset) - n_q)],
    }
    rows = slice(len(outcome.codes))
    fresh = codec.encode(result.model, dataset.features[rows], dataset.labels[rows])
    checks["round_trip"] = [] if (
        np.array_equal(fresh.words, outcome.codes.words)
        and np.array_equal(fresh.labels, outcome.codes.labels)
        and np.array_equal(outcome.model.weights, result.model.weights)
        and np.array_equal(outcome.model.bias, result.model.bias)) else [
        "codes or model changed through the checkpoint and code-set files"]
    checks["oracle"], distinct = oracle_problems(dataset, config, result.model, seed)
    return checks, distinct


# --- per-layer metrics from one traced repetition ------------------------

def _med(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, result, rep_seconds, ckpt_bytes) -> dict:
    d = lambda name: tracing.durations(spans, name)
    records = result.records
    evals = d("evaluation.evaluate")
    sgd = sorted(d("learner.sgd_step"))
    parents = tracing.with_children(spans)
    first, hit = [], []
    for i, s in enumerate(spans):
        if s[tracing.NAME] == "lsh.TargetCodeTable.target_for":
            (first if i in parents else hit).append((s[tracing.END] - s[tracing.START]) * 1e-9)
    own = tracing.self_times(spans)
    pipeline_self = sum(t for s, t in zip(spans, own)
                        if s[tracing.NAME] == "pipeline.run_training")
    encoded = sum(s[tracing.COUNT] or 0 for s in spans if s[tracing.NAME] == "codec.encode")
    n_queries = sum(r["n_queries"] for r in records)
    auc = result.summary["auc"]
    metrics = {
        "evaluation.evaluate_s_med": _med(evals),
        "evaluation.pairs_per_s": sum(r["n_queries"] * r["n_database"] for r in records)
                                  / sum(evals),
        "evaluation.calls": len(evals),
        "evaluation.skipped_frac": sum(r["n_skipped"] for r in records) / n_queries,
        "learner.sgd_us_med": _med(sgd, 1e6),
        "learner.sgd_us_p999": float(np.percentile(sgd, 99.9)) * 1e6,
        "learner.steps": len(sgd),
        "data.batch_us_med": _med(d("data.stream"), 1e6),
        "data.split_s": sum(d("data.split")),
        "hadamard.create_s": sum(d("hadamard.HadamardCodebook.create")),
        "lsh.reducer_create_s": sum(d("lsh.LshReducer.create")),
        "lsh.target_first_us_med": _med(first, 1e6),
        "lsh.target_hit_us_med": _med(hit, 1e6),
        "lsh.labels_assigned": len(first),
        "codec.encode_s": sum(d("codec.encode")),
        "codec.items_encoded": encoded,
        "codec.save_code_set_s": sum(d("codec.save_code_set")),
        "codec.load_code_set_s": sum(d("codec.load_code_set")),
        "checkpoint.save_s": sum(d("checkpoint.save_checkpoint")),
        "checkpoint.load_s": sum(d("checkpoint.load_checkpoint")),
        "checkpoint.bytes": ckpt_bytes,
        "pipeline.self_s": pipeline_self,
        "pipeline.map_auc": auc if auc is not None else result.summary["final_map"],
    }
    for layer, seconds in tracing.layer_self_seconds(spans).items():
        metrics[f"{layer}.share"] = seconds / rep_seconds
    return metrics


# --- the run -------------------------------------------------------------

def environment() -> dict:
    """Interpreter, numpy and BLAS versions, and the CPUs this process sees."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    config = pipeline.RunConfig(seed=args.seed, **config_for(args.workload, args.size))
    work = args.out / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    setup_times, load_times, dataset = [], [], None
    for _ in range(workload.n_setups):
        dataset = None
        tracer = tracing.Tracer() if args.trace else None
        t0 = time.perf_counter()
        if tracer:
            with tracer:
                dataset = load(workload.kind, args.data)
            load_times.append(sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                                  if s[tracing.NAME] in ("data.load_idx", "data.load_dense")) * 1e-9)
        else:
            dataset = load(workload.kind, args.data)
        setup_times.append(time.perf_counter() - t0)

    plain, traced, records, failures = [], [], [], []
    best = None     # (spans, rep seconds) of the latest traced repetition
    outcome = None
    modes = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    while True:
        for is_traced in modes:
            outcome = None
            tracer = tracing.Tracer() if is_traced else None
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer:
                        outcome = body(dataset, workload, config, work)
                else:
                    outcome = body(dataset, workload, config, work)
            except Exception as exc:    # a failed repetition is counted, not fatal
                failures.append(f"{type(exc).__name__}: {exc}")
                break
            seconds = time.perf_counter() - t0
            (traced if is_traced else plain).append(seconds)
            records.append(record_bytes(outcome.result))
            if tracer:
                best = (tracer.spans, seconds)
        if failures:
            break
        cycle = sum(statistics.median(v) for v in (plain, traced) if v)
        if time.perf_counter() - start + cycle > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = {}
    distinct = 0
    if outcome is not None:
        try:
            checks, distinct = run_checks(dataset, config, outcome, records, args.seed)
        except Exception as exc:
            checks["checks_ran"] = [f"{type(exc).__name__}: {exc}"]
    attempted = len(plain) + len(traced) + len(failures) + len(checks)
    failed = len(failures) + sum(1 for problems in checks.values() if problems)
    if failures:
        checks["repetitions"] = failures

    report = {"env": environment(), "attempted": attempted, "failed": failed,
              "checks": {k: v for k, v in checks.items() if v},
              "reps_untraced_s": plain, "reps_traced_s": traced,
              "setup_s": setup_times}
    if outcome is not None and plain:
        summary = outcome.result.summary
        report["end_to_end"] = {
            "run_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_mib,
            "final_map": summary["final_map"],
            "final_p_at_k": summary["final_precision_at_k"],
        }
        if best is not None:
            spans, seconds = best
            layers = layer_metrics(spans, outcome.result, seconds,
                                   outcome.checkpoint_bytes)
            layers["data.load_s"] = statistics.median(load_times)
            layers["codec.distinct_db_codes"] = distinct
            layers["pipeline.trace_overhead_s"] = (statistics.median(traced)
                                                   - statistics.median(plain))
            report["per_layer"] = layers
            tracing.dump(args.out / f"trace-{args.workload}-seed{args.seed}.jsonl", spans)
    for path in work.iterdir():
        path.unlink()
    work.rmdir()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
