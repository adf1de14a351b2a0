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
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .codec import encode
from .data import Dataset, SplitSpec, split_indices, stream
from .errors import ConfigError, InvalidOrderError
from .evaluation import evaluate, map_curve_auc
from .hadamard import HadamardCodebook, codeword_order
from .learner import init_model, train_stream
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

    def validate(self):
        if self.seed < 0 or self.repeat < 0:
            raise ConfigError(
                f"seed and repeat must be non-negative, got {self.seed}, "
                f"{self.repeat}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        ms = list(self.milestones)
        if any(m < 1 for m in ms) or any(a >= b for a, b in zip(ms, ms[1:])):
            raise ConfigError(
                f"milestones must be positive and strictly increasing, got {ms}")
        if self.max_labels < 1:
            raise ConfigError(f"max_labels must be >= 1, got {self.max_labels}")
        try:  # the code length and table limits; create builds no table
            LshReducer.create(codeword_order(self.bits, self.max_labels),
                              self.bits, 0)
        except InvalidOrderError as exc:
            raise ConfigError(
                f"{self.bits} bits, {self.max_labels} labels: {exc}") from None
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

    The training stream runs in stretches of whole batches, one
    ``train_stream`` call each, and the model is evaluated after each:
    after the first batch that takes the instance count to or past a
    milestone, and after the last batch.  So milestones inside one batch
    share one checkpoint record, milestones past the stream share the
    final one, and an empty training split gives one record at 0
    instances.  A closing summary record carries the curve AUC.  Raises
    ConfigError before any training when ``k_prec`` exceeds the
    retrieval set.

    The split is kept as row indices into ``dataset``: the stream
    gathers its chunks from it, and each evaluation hashes every row
    once (test and retrieval together are the whole dataset) and takes
    the query and database codes by index.  A non-finite feature row
    therefore raises ValueError naming its row in ``dataset``, and
    weights that overflow on finite rows raise NumericFailureError.

    When the codebook order exceeds ``bits``, one WARNING on the ``hcoh``
    logger says so: the targets are then Gaussian-LSH codes, distributed
    like i.i.d. random codes rather than orthogonal columns.
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
    if not reducer.is_identity:
        log.warning(
            "codeword order %d exceeds %d bits, so the targets are Gaussian-LSH "
            "codes, distributed like i.i.d. random codes rather than orthogonal "
            "Hadamard columns; %s", order, config.bits,
            f"a --max-labels of at most {config.bits} keeps them orthogonal "
            f"while the stream has at most {config.bits} labels"
            if codeword_order(config.bits) == config.bits else
            f"orthogonal targets need a code length that is a power of two, "
            f"at least 2, which {config.bits} is not")
    model = init_model(dataset.features.shape[1], config.bits, config.eta,
                       seeds.model)

    records = []

    def check_in(instances_seen):
        codes = encode(model, dataset.features, dataset.labels)
        report = evaluate(codes.take(test_idx), codes.take(retrieval_idx),
                          k_prec=config.k_prec, k_map=config.k_map)
        records.append({"record": "checkpoint",
                        "instances_seen": instances_seen,
                        **report.to_record()})
        log.info("instances=%d mAP=%.4f P@%d=%.4f", instances_seen,
                 report.map, config.k_prec, report.precision_at_k)

    # Milestone m falls in batch ceil(m / batch_size), counted from 1: the
    # first after which the stream holds at least m instances.
    n_batches = -(-len(train_idx) // config.batch_size)
    stops = sorted({min(-(-int(m) // config.batch_size), n_batches)
                    for m in config.milestones} | {n_batches})
    batches = stream(dataset, config.batch_size, seeds.stream, train_idx)
    done = 0
    for stop in stops:
        train_stream(model, islice(batches, stop - done), book, reducer)
        done = stop
        check_in(min(stop * config.batch_size, len(train_idx)))

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


def check_repeats(repeats: int) -> None:
    """Raise ConfigError unless ``repeats`` is a count of at least one run."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")


def run_repeats(dataset: Dataset, config: RunConfig, repeats: int):
    """Run the protocol ``repeats`` times with derived per-repeat seeds.

    ``repeats`` is checked by :func:`check_repeats` before any run.
    Returns (results, aggregate) where the aggregate dict carries the
    across-repeat means of the final metrics.
    """
    check_repeats(repeats)
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
