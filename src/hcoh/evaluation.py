"""Hamming-ranking retrieval metrics: AP/mAP, Precision@K, mAP-curve AUC.

Queries are ranked against a database by ascending Hamming distance with
ties broken by ascending database index, which makes every metric here
fully deterministic.  Relevance is shared class label.  Average
precision is the non-interpolated form

    AP = (1/R) * sum over relevant ranks k of  (relevant in top k) / k

with R the number of relevant items, clipped to the cutoff K when one is
given (so AP@K <= 1 always).  Queries with no relevant item in the
database, or with the unknown label, are skipped and counted, not
scored as zero.

:func:`rank` orders a set of queries against a database in one call.
The distances come from ``hcoh.codec._hamming_distances`` in the
narrowest unsigned dtype that holds the code length (uint8 below 256
bits, uint16 below 65,536), and one ``argsort(kind="stable")`` orders
every row.  On 8- and 16-bit integers numpy's stable sort is a radix
sort, linear in the database size, and being stable it keeps the tie
rule: by distance, then by database index.  :func:`evaluate` runs on
the calling thread and starts none: it takes
``max(1, RANK_BLOCK_BYTES // (8 * n))`` queries at a time against n
database codes, measures their distances into one (block, n) buffer
that it allocates once per call and reuses for every block, argsorts
the block and scores each query's row by :func:`average_precision` and
:func:`precision_at_k`, in query order.  So the int64 rankings in
memory are one block's, at most RANK_BLOCK_BYTES or one query's row,
whichever is larger, however many queries there are.  Only full AP
gathers the whole ranked relevance list, the cut-off metrics gather
their top K.  A query with the unknown label -1 (``fileio.UNKNOWN_LABEL``,
stored as 0xFFFFFFFF) has no class, so it is skipped and counted like
a query with no relevant item, and a database code with that label is
relevant to no query.  A query's ranking does not depend on which
block holds it, and per-query results stay in query order, so each
mean is reduced over the same array for any block size.
"""

from dataclasses import dataclass

import numpy as np

from .codec import BinaryCodeSet, _distance_dtype, _hamming_distances
from .errors import DimensionError, UndefinedAPError
from .fileio import UNKNOWN_LABEL

# Bytes of the (q, n) int64 rankings of one block of queries, the queries
# that evaluate measures, sorts and scores at once on the calling thread;
# with the block's distances, in one buffer reused for every block, it
# bounds evaluate's temporaries whatever the query count.  Blocks well
# under glibc's 32 MiB mmap ceiling can reuse heap pages instead of
# mapping and faulting in fresh ones for every block.
RANK_BLOCK_BYTES = 4 * 2**20


def rank(queries: BinaryCodeSet, database: BinaryCodeSet) -> np.ndarray:
    """Database indices by ascending Hamming distance, ties by index.

    Returns a (q, n) int64 array whose row i ranks the database for
    query i.  Raises DimensionError if the code lengths differ.
    """
    _check_lengths(queries, database)
    distances = _hamming_distances(queries.words, database.words, database.length)
    return np.argsort(distances, axis=1, kind="stable")


def _check_lengths(queries: BinaryCodeSet, database: BinaryCodeSet) -> None:
    if queries.length != database.length:
        raise DimensionError(
            f"code lengths differ: queries {queries.length}, "
            f"database {database.length}")


def average_precision(ranking: np.ndarray, relevance: np.ndarray,
                      cutoff: int = None) -> float:
    """Non-interpolated AP of one ranked list, optionally truncated at cutoff."""
    ranking = np.asarray(ranking)
    relevance = np.asarray(relevance, dtype=bool)
    if ranking.shape[0] != relevance.shape[0]:
        raise DimensionError(
            f"ranking has {ranking.shape[0]} entries, relevance has "
            f"{relevance.shape[0]}")
    total_relevant = int(np.count_nonzero(relevance))
    if cutoff is None:
        denom = total_relevant
        if denom == 0:
            raise UndefinedAPError("no relevant items and no cutoff given")
        ranked_rel = relevance[ranking]
    else:
        if cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        denom = min(total_relevant, cutoff)
        if denom == 0:
            return 0.0
        ranked_rel = relevance[ranking[:cutoff]]
    # 0-based ranks of the relevant items; the i-th has precision i / (rank + 1).
    hits = np.flatnonzero(ranked_rel)
    precisions = np.arange(1, hits.size + 1) / (hits + 1.0)
    return float(precisions.sum() / denom)


def precision_at_k(ranking: np.ndarray, relevance: np.ndarray, k: int) -> float:
    """Fraction of relevant items among the top k of the ranking."""
    ranking = np.asarray(ranking)
    relevance = np.asarray(relevance, dtype=bool)
    if not 1 <= k <= ranking.shape[0]:
        raise ValueError(
            f"k must be in [1, {ranking.shape[0]}], got {k}")
    return float(relevance[ranking[:k]].mean())


@dataclass
class EvalReport:
    """Aggregated retrieval quality for a query set against a database."""

    map: float
    precision_at_k: float
    k_prec: int
    map_at_k: float = None
    k_map: int = None
    per_query_ap: np.ndarray = None
    n_queries: int = 0
    n_database: int = 0
    n_skipped: int = 0

    def to_record(self) -> dict:
        rec = {
            "map": self.map,
            "precision_at_k": self.precision_at_k,
            "k_prec": self.k_prec,
            "n_queries": self.n_queries,
            "n_database": self.n_database,
            "n_skipped": self.n_skipped,
        }
        if self.k_map is not None:
            rec["map_at_k"] = self.map_at_k
            rec["k_map"] = self.k_map
        return rec


def evaluate(queries: BinaryCodeSet, database: BinaryCodeSet, k_prec: int,
             k_map: int = None) -> EvalReport:
    """Score every query against the database; aggregate means.

    Raises DimensionError, before any other check, if either set holds
    no codes, and UndefinedAPError if no query is scored: each has the
    unknown label or no relevant database item.
    """
    for side, codes in (("query", queries), ("database", database)):
        if len(codes) == 0:
            raise DimensionError(f"the {side} code set is empty")
    n_q, n_db = len(queries), len(database)
    if not 1 <= k_prec <= n_db:
        raise ValueError(f"k_prec must be in [1, {n_db}], got {k_prec}")
    if k_map is not None and k_map < 1:
        raise ValueError(f"k_map must be positive, got {k_map}")
    ap_full = np.zeros(n_q)
    ap_cut = np.zeros(n_q)
    prec = np.zeros(n_q)
    scored = np.zeros(n_q, dtype=bool)

    # One call per block, so that a block's rankings are freed before the
    # next block is sorted.
    def rank_and_score(lo, distances):
        rankings = np.argsort(distances, axis=1, kind="stable")
        for qi, ranking in enumerate(rankings, start=lo):
            relevance = database.labels == queries.labels[qi]
            if queries.labels[qi] == UNKNOWN_LABEL or not relevance.any():
                continue
            scored[qi] = True
            ap_full[qi] = average_precision(ranking, relevance)
            if k_map is not None:
                ap_cut[qi] = average_precision(ranking, relevance, cutoff=k_map)
            prec[qi] = precision_at_k(ranking, relevance, k_prec)

    _check_lengths(queries, database)
    block = max(1, RANK_BLOCK_BYTES // (8 * n_db))  # queries at a time
    distances = np.empty((block, n_db), dtype=_distance_dtype(database.length))
    for lo in range(0, n_q, block):
        words = queries.words[lo:lo + block]
        rank_and_score(lo, _hamming_distances(words, database.words, database.length,
                                              out=distances[:len(words)]))

    n_scored = int(scored.sum())
    if n_scored == 0:
        raise UndefinedAPError("no query has any relevant database item")
    report = EvalReport(
        map=float(ap_full[scored].mean()),
        precision_at_k=float(prec[scored].mean()),
        k_prec=k_prec,
        per_query_ap=ap_full[scored],
        n_queries=n_q,
        n_database=n_db,
        n_skipped=n_q - n_scored,
    )
    if k_map is not None:
        report.map_at_k = float(ap_cut[scored].mean())
        report.k_map = k_map
    return report


def map_curve_auc(points) -> float:
    """Trapezoidal area under (instances_seen, mAP), normalized by x-range.

    Normalization keeps the value in [0, 1] and comparable across
    datasets; multiply by (x_max - x_min) to recover the raw area.
    """
    points = list(points)
    if len(points) < 2:
        raise ValueError(f"need at least 2 curve points, got {len(points)}")
    xs = np.asarray([p[0] for p in points], dtype=np.float64)
    ys = np.asarray([p[1] for p in points], dtype=np.float64)
    if not (np.diff(xs) > 0).all():
        raise ValueError("curve points must be strictly increasing in x")
    return float(np.trapezoid(ys, xs) / (xs[-1] - xs[0]))
