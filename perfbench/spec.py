"""The benchmark workloads: generated inputs and run configuration.

Each workload is built so that one ``hcoh`` layer does most of its work
and the others little, so a speed-up of one layer shows on one workload
and predicts "no change" on another (README.md has the table).  Every
field not named here keeps the library default, in particular
``eta=0.2`` and ``n_threads=1``.
"""

from dataclasses import dataclass

MILESTONES = tuple(range(2000, 20001, 2000))


@dataclass(frozen=True)
class Workload:
    kind: str            # "mnist" (IDX files) or "openset" (HCOHFEAT + labels)
    config: dict         # RunConfig fields
    n_setups: int        # loads per run; setup_s is their median
    encode_rows: int     # rows of the feature file re-encoded from the checkpoint
    tiny_gen: tuple      # generator arguments for --size tiny
    tiny_config: dict    # RunConfig overrides for --size tiny


WORKLOADS = {
    # The paper protocol at 32 bits: the Hamming-ranking evaluation at ten
    # milestones is the largest layer.
    "protocol32": Workload(
        kind="mnist",
        config=dict(bits=32, milestones=MILESTONES, test_per_class=15),
        n_setups=5, encode_rows=1000,
        tiny_gen=("--n", "2100"),
        tiny_config=dict(milestones=(100, 200, 300), train_subset=300,
                         test_per_class=5, k_prec=50)),
    # The 128-bit stream with one small final evaluation: SGD is most of it.
    "stream128": Workload(
        kind="mnist",
        config=dict(bits=128, test_per_class=10),
        n_setups=5, encode_rows=1000,
        tiny_gen=("--n", "2100"),
        tiny_config=dict(train_subset=300, test_per_class=5, k_prec=50)),
    # An open label space: 1,000 classes under a 16,384-label bound, so the
    # codebook, the Gaussian reducer and first-sight targets cost something,
    # relevance is sparse, and the whole feature file goes through the
    # checkpoint and code-set files.
    "openset64": Workload(
        kind="openset",
        config=dict(bits=64, max_labels=16384, test_per_class=1, k_prec=50),
        n_setups=11, encode_rows=50_000,
        tiny_gen=("--n", "2000", "--classes", "100"),
        tiny_config=dict(max_labels=1024, train_subset=500, k_prec=10)),
}


def config_for(name: str, size: str) -> dict:
    """RunConfig keyword arguments of a workload at the given size."""
    cfg = dict(WORKLOADS[name].config)
    if size == "tiny":
        cfg.update(WORKLOADS[name].tiny_config)
    return cfg


# Metric name -> unit.  End-to-end metrics come from untraced repetitions
# (--trace 0); per-layer metrics from the traced ones (--trace 1).
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "final_map": "1",
    "final_p_at_k": "1",
}
LAYERS = ("data", "hadamard", "lsh", "learner", "codec", "evaluation",
          "checkpoint", "pipeline")
PER_LAYER = {
    "evaluation.evaluate_s_med": "s",
    "evaluation.pairs_per_s": "1/s",
    "evaluation.calls": "count",
    "evaluation.skipped_frac": "1",
    "learner.sgd_us_med": "us",
    "learner.sgd_us_p999": "us",
    "learner.steps": "count",
    "data.batch_us_med": "us",
    "data.load_s": "s",
    "data.split_s": "s",
    "hadamard.create_s": "s",
    "lsh.reducer_create_s": "s",
    "lsh.target_first_us_med": "us",
    "lsh.target_hit_us_med": "us",
    "lsh.labels_assigned": "count",
    "codec.encode_s": "s",
    "codec.items_encoded": "count",
    "codec.distinct_db_codes": "count",
    "codec.save_code_set_s": "s",
    "codec.load_code_set_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "B",
    "pipeline.self_s": "s",
    "pipeline.map_auc": "1",
    "pipeline.trace_overhead_s": "s",
    **{f"{layer}.share": "1" for layer in LAYERS},
}
