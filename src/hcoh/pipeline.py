"""End-to-end training/evaluation runs wired from the library pieces.

A run is fully determined by a dataset and a RunConfig.  The single
master seed is split into five independent component seeds (model init,
codebook column draws, reducer projection, protocol split, stream
order) via numpy's SeedSequence with entropy (master, repeat):

    SeedSequence([master, repeat]).generate_state(5, dtype=uint64)

so ``seed=7`` reproduces an entire run bit-for-bit while each component
stays independently reseedable through the library API.  ``repeat``
indexes protocol repetitions that should differ in everything but the
configuration.
"""

import logging
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .codec import encode
from .data import Dataset, SplitSpec, split_indices, stream
from .errors import ConfigError
from .evaluation import evaluate, map_curve_auc
from .hadamard import MAX_ORDER, HadamardCodebook, codeword_order
from .learner import GRADIENT_FACTORS, init_model, train_stream
from .lsh import LshReducer

log = logging.getLogger("hcoh")

Seeds = namedtuple("Seeds", ["model", "codebook", "reducer", "split", "stream"])


def derive_seeds(master: int, repeat: int = 0) -> Seeds:
    """Five independent component seeds from one master seed."""
    state = np.random.SeedSequence([int(master), int(repeat)]).generate_state(
        5, dtype=np.uint64)
    return Seeds(*(int(s) for s in state))


@dataclass
class RunConfig:
    bits: int = 32
    eta: float = 0.2
    batch_size: int = 1
    seed: int = 0
    repeat: int = 0
    milestones: tuple = ()
    max_labels: int = 2
    test_per_class: int = 100
    train_subset: int = 20000
    k_prec: int = 500
    k_map: int = None
    gradient: str = "exact"

    def validate(self):
        if self.bits < 1:
            raise ConfigError(f"bits must be >= 1, got {self.bits}")
        if self.seed < 0 or self.repeat < 0:
            raise ConfigError(
                f"seed and repeat must be non-negative, got {self.seed}, "
                f"{self.repeat}")
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        ms = list(self.milestones)
        if any(m < 1 for m in ms) or any(a >= b for a, b in zip(ms, ms[1:])):
            raise ConfigError(
                f"milestones must be positive and strictly increasing, got {ms}")
        if self.gradient not in GRADIENT_FACTORS:
            raise ConfigError(
                f"gradient must be one of {GRADIENT_FACTORS}, got {self.gradient!r}")
        if self.max_labels < 1:
            raise ConfigError(f"max_labels must be >= 1, got {self.max_labels}")
        order = codeword_order(self.bits, self.max_labels)
        if order > MAX_ORDER:
            raise ConfigError(
                f"codebook order {order} for {self.bits} bits and "
                f"{self.max_labels} labels exceeds the cap {MAX_ORDER}")
        if self.train_subset < 0:
            raise ConfigError(
                f"train_subset must be >= 0, got {self.train_subset}")
        if self.test_per_class < 1:
            raise ConfigError(
                f"test_per_class must be >= 1, got {self.test_per_class}")
        if self.k_prec < 1:
            raise ConfigError(f"k_prec must be >= 1, got {self.k_prec}")
        if self.k_map is not None and self.k_map < 1:
            raise ConfigError(f"k_map must be >= 1, got {self.k_map}")
        return self


@dataclass
class TrainResult:
    records: list
    summary: dict
    model: object
    book: object
    reducer: object
    seeds: Seeds


def run_training(dataset: Dataset, config: RunConfig) -> TrainResult:
    """Split, stream, train, and evaluate at milestones and at the end.

    Emits one checkpoint record per milestone crossing (plus a final one
    when the stream ends past the last milestone) and a closing summary
    record carrying the curve AUC.  Raises ConfigError before any
    training when ``k_prec`` exceeds the retrieval set.

    The split is kept as row indices into ``dataset``: the stream
    gathers its chunks from it, and each evaluation hashes every row
    once (test and retrieval together are the whole dataset) and takes
    the query and database codes by index.  A non-finite feature row
    therefore raises ValueError naming its row in ``dataset``.
    """
    config.validate()
    seeds = derive_seeds(config.seed, config.repeat)
    test_idx, retrieval_idx, train_idx = split_indices(
        dataset, SplitSpec(config.test_per_class, config.train_subset,
                           seeds.split))
    if config.k_prec > len(retrieval_idx):
        raise ConfigError(
            f"k_prec {config.k_prec} exceeds retrieval size {len(retrieval_idx)}")
    order = codeword_order(config.bits, config.max_labels)
    book = HadamardCodebook.create(order, seeds.codebook)
    reducer = LshReducer.create(order, config.bits, seeds.reducer)
    log.info("codeword order %d for %d bits (%s reducer)", order, config.bits,
             "identity" if reducer.is_identity else "gaussian")
    model = init_model(dataset.features.shape[1], config.bits, config.eta,
                       seeds.model)

    records = []

    def check_in(instances_seen, model):
        codes = encode(model, dataset.features, dataset.labels)
        report = evaluate(codes.take(test_idx), codes.take(retrieval_idx),
                          k_prec=config.k_prec, k_map=config.k_map)
        records.append({"record": "checkpoint",
                        "instances_seen": instances_seen,
                        **report.to_record()})
        log.info("instances=%d mAP=%.4f P@%d=%.4f", instances_seen,
                 report.map, config.k_prec, report.precision_at_k)

    batches = stream(dataset, config.batch_size, seeds.stream, train_idx)
    train_stream(model, batches, book, reducer,
                 milestones=config.milestones, hook=check_in,
                 gradient=config.gradient)
    if not records or records[-1]["instances_seen"] < len(train_idx):
        check_in(len(train_idx), model)

    curve = [(rec["instances_seen"], rec["map"]) for rec in records]
    auc = map_curve_auc(curve) if len(curve) >= 2 else None
    summary = {"record": "summary", "auc": auc,
               "n_checkpoints": len(records),
               "final_map": records[-1]["map"],
               "final_precision_at_k": records[-1]["precision_at_k"],
               "bits": config.bits, "eta": config.eta,
               "batch_size": config.batch_size, "seed": config.seed,
               "repeat": config.repeat, "codeword_order": order,
               "reducer": "identity" if reducer.is_identity else "gaussian"}
    return TrainResult(records=records, summary=summary, model=model,
                       book=book, reducer=reducer, seeds=seeds)


def run_repeats(dataset: Dataset, config: RunConfig, repeats: int):
    """Run the protocol ``repeats`` times with derived per-repeat seeds.

    Returns (results, aggregate) where the aggregate dict carries the
    across-repeat means of the final metrics.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    results = [run_training(dataset, replace(config, repeat=i))
               for i in range(repeats)]
    maps = [r.summary["final_map"] for r in results]
    precs = [r.summary["final_precision_at_k"] for r in results]
    aucs = [r.summary["auc"] for r in results]
    aggregate = {
        "record": "aggregate", "bits": config.bits, "repeats": repeats,
        "map_mean": float(np.mean(maps)), "map_per_repeat": maps,
        "precision_mean": float(np.mean(precs)), "precision_per_repeat": precs,
        "auc_mean": (float(np.mean(aucs)) if all(a is not None for a in aucs)
                     else None),
    }
    return results, aggregate
