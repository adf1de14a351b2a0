"""Benchmark of the hcoh library: three workloads, each in its own process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

For one workload the steps are: generate the inputs from the seed in a
separate process (gen.py), run the measured process (workloads.py) with
``src`` on PYTHONPATH and every thread count fixed at 1, and print an
environment stamp line followed, as the last line, by one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  ``--workload all`` runs every workload in turn and
prints a table.  The exit code is 0 only when every correctness check
passed.  Working files live under ``.perfbench/`` at the repository root
and are removed after each run, except for the per-run result files and
span traces kept in ``.perfbench/results/<dataset>/``.

When ``HCOH_MNIST_DIR`` names a directory holding the four MNIST IDX
files, the MNIST-shaped workloads read them instead of generated data;
results are then filed under the dataset tag ``mnist``, never mixed with
the synthetic ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "HCOH_NUM_THREADS")
MNIST_STEMS = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def real_mnist_dir():
    """$HCOH_MNIST_DIR when it holds the four IDX files (plain or .gz)."""
    raw = os.environ.get("HCOH_MNIST_DIR")
    if not raw:
        return None
    directory = Path(raw)
    if all((directory / s).exists() or (directory / (s + ".gz")).exists()
           for s in MNIST_STEMS):
        return directory
    return None


def source_stamp() -> dict:
    """Git commit when available, and a digest of the library sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hcoh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_one(name, seed, seconds, trace, size, deadline):
    """Generate, measure and check one workload.

    Returns the contract result, the environment stamp and the full report.
    """
    workload = WORKLOADS[name]
    work = WORKDIR / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data_dir = real_mnist_dir() if workload.kind == "mnist" else None
        if data_dir is not None:
            tag = "mnist"
        else:
            tag = f"synthetic-{workload.kind}"
            data_dir = work / "data"
            gen = [sys.executable, str(HERE / "gen.py"), "--kind", workload.kind,
                   "--seed", str(seed), "--out", str(data_dir)]
            if size == "tiny":
                gen += list(workload.tiny_gen)
            subprocess.run(gen, check=True, timeout=deadline - time.monotonic())
        env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
        measured = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name,
             "--data", str(data_dir), "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out", str(work), "--size", size],
            env=env, check=True, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic())
        report = json.loads(measured.stdout.strip().splitlines()[-1])
        results = WORKDIR / "results" / tag
        results.mkdir(parents=True, exist_ok=True)
        for span_file in work.glob("trace-*.jsonl"):
            shutil.move(span_file, results / span_file.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    values = report.get("per_layer" if trace else "end_to_end", {})
    missing = [m for m in units if m not in values]
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()
               if m in values}
    result = {"correct": report["failed"] == 0 and not missing,
              "attempted": report["attempted"],
              "failed": report["failed"] + (1 if missing else 0),
              "metrics": metrics}
    stamp = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
             "size": size, "dataset": tag, **report["env"], **source_stamp(),
             "threads": {v: env[v] for v in THREAD_VARS}}
    detail = {"env": stamp, "result": result, "report": report}
    (results / f"{name}-seed{seed}-trace{trace}-{size}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    return result, stamp, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "hcoh" / "__init__.py").is_file():
        print(f"hcoh sources not found under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        result, stamp, report = run_one(name, args.seed, args.seconds,
                                        args.trace, args.size, deadline)
        results[name] = result
        print(json.dumps({"env": stamp, "checks_failed": report["checks"]},
                         sort_keys=True))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0 if results[names[0]]["correct"] else 1

    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':<28}{'unit':<7}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in units.items():
        cells = [results[n]["metrics"].get(metric, {}).get("value") for n in names]
        print(f"{metric:<28}{unit:<7}" + "".join(
            f"{c:>14.6g}" if c is not None else f"{'-':>14}" for c in cells))
    print(f"{'correct':<35}" + "".join(f"{str(results[n]['correct']):>14}" for n in names))
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{m}": v for n, r in results.items()
                            for m, v in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
