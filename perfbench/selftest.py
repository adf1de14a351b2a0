"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the
metrics BENCHMARK.json names, each with its unit, and passes its
correctness checks; that the oracle rejects an evaluation whose ranking
was deliberately corrupted; and that the tracer puts back every
function it wrapped.  Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hcoh  # noqa: E402
from hcoh import codec, evaluation  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def check_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for mode, key, units in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert want == units, f"{key} in BENCHMARK.json differs from spec.py"
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "5", "--seconds", "1", "--trace", str(mode),
                 "--size", "tiny"], capture_output=True, text=True, timeout=180)
            assert out.returncode == 0, f"{name} trace {mode}: {out.stderr}"
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, mode, out.stdout)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            assert got == want, f"{name} trace {mode}: metrics differ from BENCHMARK.json"
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            print(f"ok  {name} trace {mode}: {len(got)} metrics")


def _codes(rng, n, bits, n_classes):
    words = rng.integers(0, 2**63, size=(n, 1), dtype=np.uint64)
    return codec.BinaryCodeSet(words, rng.integers(n_classes, size=n), bits)


def _swap_ends(fn):
    def corrupted(ranking, relevance, *args, **kwargs):
        ranking = np.array(ranking)
        ranking[[0, -1]] = ranking[[-1, 0]]
        return fn(ranking, relevance, *args, **kwargs)
    return corrupted


def check_oracle():
    rng = np.random.default_rng(3)
    queries, database = _codes(rng, 20, 16, 4), _codes(rng, 300, 16, 4)
    report = evaluation.evaluate(queries, database, k_prec=10)
    assert oracle.check(queries, database, report, 10) == [], "oracle rejects a correct run"
    saved = evaluation.average_precision, evaluation.precision_at_k
    evaluation.average_precision, evaluation.precision_at_k = map(_swap_ends, saved)
    try:
        bad = evaluation.evaluate(queries, database, k_prec=10)
    finally:
        evaluation.average_precision, evaluation.precision_at_k = saved
    problems = oracle.check(queries, database, bad, 10)
    assert problems, "oracle accepted a corrupted ranking"
    print(f"ok  oracle rejects a corrupted ranking: {problems[0]}")


def check_tracer_restores():
    before = {name: getattr(hcoh, name) for name in dir(hcoh)}
    methods = vars(hcoh.HadamardCodebook).copy()
    with tracing.Tracer():
        assert hcoh.evaluate is not before["evaluate"]
    assert {name: getattr(hcoh, name) for name in before} == before
    assert vars(hcoh.HadamardCodebook) == methods
    print("ok  tracer restores every wrapped function")


if __name__ == "__main__":
    check_oracle()
    check_tracer_restores()
    check_metrics()
    print("selftest passed")
