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

The i-th relevant item at 0-based rank h has precision i / (h + 1), and
``_scores`` is the one place that sums them: :func:`average_precision`,
:func:`precision_at_k` and :func:`evaluate` all hand it these ranks.

:func:`rank` orders a set of queries against a database in one call.
The distances come from ``hcoh.codec._hamming_distances`` in the
narrowest unsigned dtype that holds the code length (uint8 below 256
bits, uint16 below 65,536), and one ``argsort(kind="stable")`` orders
every row.  On 8- and 16-bit integers numpy's stable sort is a radix
sort, linear in the database size, and being stable it keeps the tie
rule: by distance, then by database index.  :func:`evaluate` runs on
the calling thread and starts none: it takes
``max(1, RANK_BLOCK_BYTES // (8 * n))`` queries at a time against n
database codes and measures their distances into one (block, n) buffer
that it allocates once per call and reuses for every block.  Each query
then takes one of two routes, chosen by its class size R alone, which
one sort of the database labels per call gives for every query:

* A large class, R * SMALL_CLASS_RATIO > n, is ranked over the whole
  row: the query's own row is argsorted and scored by
  :func:`average_precision` and :func:`precision_at_k`.  The one int64
  ranking in memory is that query's, 8n bytes.
* A small class ranks only its candidates, the codes no farther than
  D, the distance of the class's farthest code.  Every code ranked
  ahead of a relevant code by (distance, index) is no farther than that
  relevant code, so it is a candidate, and a candidate's rank among the
  stably sorted candidates is its rank in the whole row; AP, AP@K and
  P@K are therefore exact, and a cutoff beyond the candidates counts
  every relevant code.  The class's codes come from one argsort of the
  database labels per call, made only when some query takes this route.

The test costs nothing per query.  Every candidate set holds its class,
so a large class always has many candidates.  On trained 64-bit codes
of 49,000 items in 1,000 classes (0.1% each) the candidates are a
median 8% of the database, and ``evaluate`` took 0.14 s on one thread
against 0.24 s for the whole-row route.  On MNIST-shaped 32-bit codes,
whose ten classes are 10% each, the candidates are about 95% of the
database and that route is about 1.5x slower, which is why such
classes keep the whole row.  The class size does not see how far a
class's codes spread: a small class that its codes do not separate,
such as two unrelated classes under one label, has most of the
database as candidates, and there the candidate route was 1.3-1.7x
slower than the whole row.

A query with the unknown label -1 (``fileio.UNKNOWN_LABEL``, stored as
0xFFFFFFFF) has no class, so it is skipped and counted like a query
with no relevant item, and a database code with that label is relevant
to no query.  A query's scores do not depend on which block holds it or
which route it takes, and per-query results stay in query order, so
each mean is reduced over the same array for any block size and any
SMALL_CLASS_RATIO.
"""

from dataclasses import dataclass

import numpy as np

from .codec import BinaryCodeSet, _distance_dtype, _hamming_distances
from .errors import DimensionError, UndefinedAPError
from .fileio import UNKNOWN_LABEL

# Sets evaluate's block: max(1, RANK_BLOCK_BYTES // (8 * n)) queries at a
# time against n database codes.  Their distances fill one buffer, reused
# for every block, and the queries are then ranked one at a time, so
# evaluate's temporaries are that buffer, an eighth of this budget for uint8
# distances and a quarter for uint16, plus one query's int64 ranking of 8n
# bytes, whatever the query count.
RANK_BLOCK_BYTES = 4 * 2**20

# A query whose class holds at most 1/SMALL_CLASS_RATIO of the database
# ranks only its candidates; a larger class is ranked over the whole row.
# 16 is the smallest power of two that keeps the 10% classes of MNIST-shaped
# sets on the whole row; separated classes of 1/4 to 1/1,000 of the database
# ranked faster by candidates in the sweep CHANGES.md records.
SMALL_CLASS_RATIO = 16


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


def _scores(hits: np.ndarray, total_relevant: int = None, cutoff: int = None,
            k: int = None) -> tuple:
    """(AP, AP@cutoff, P@k) of one ranked list, from its hits.

    ``hits`` are the ascending 0-based ranks of the list's relevant items,
    of which there are ``total_relevant``; the i-th hit has precision
    i / (rank + 1).  AP is the sum of those precisions over
    total_relevant, AP@cutoff the sum over the hits ranked above cutoff
    over min(total_relevant, cutoff), or 0 with no relevant item, and P@k
    the count of hits ranked above k over k, which needs no
    total_relevant.  A metric whose count or cutoff is None is None.  The
    cut-off metrics read only the hits above their cutoff, so a caller
    that reads no full AP may pass those alone.
    """
    ap = ap_at_cutoff = p_at_k = None
    if total_relevant:
        precisions = np.arange(1, hits.size + 1) / (hits + 1.0)
        ap = float(precisions.sum() / total_relevant)
        if cutoff is not None:
            above = np.searchsorted(hits, cutoff)
            ap_at_cutoff = float(precisions[:above].sum() / min(total_relevant, cutoff))
    elif cutoff is not None:
        ap_at_cutoff = 0.0
    if k is not None:
        p_at_k = int(np.searchsorted(hits, k)) / k
    return ap, ap_at_cutoff, p_at_k


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
        if total_relevant == 0:
            raise UndefinedAPError("no relevant items and no cutoff given")
        return _scores(np.flatnonzero(relevance[ranking]), total_relevant)[0]
    if cutoff < 1:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    hits = np.flatnonzero(relevance[ranking[:cutoff]])
    return _scores(hits, total_relevant, cutoff=cutoff)[1]


def precision_at_k(ranking: np.ndarray, relevance: np.ndarray, k: int) -> float:
    """Fraction of relevant items among the top k of the ranking."""
    ranking = np.asarray(ranking)
    relevance = np.asarray(relevance, dtype=bool)
    if not 1 <= k <= ranking.shape[0]:
        raise ValueError(
            f"k must be in [1, {ranking.shape[0]}], got {k}")
    return _scores(np.flatnonzero(relevance[ranking[:k]]), k=k)[2]


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
    _check_lengths(queries, database)

    # Query i's class is the run members[first[i]:first[i] + size[i]] of
    # the database indices sorted by label.  Only the candidate route reads
    # members, so without it the whole-row route peaks with no index array.
    labels = np.sort(database.labels)
    first = np.searchsorted(labels, queries.labels, side="left")
    size = np.searchsorted(labels, queries.labels, side="right") - first
    del labels
    scored = (queries.labels != UNKNOWN_LABEL) & (size > 0)
    whole_row = scored & (size * SMALL_CLASS_RATIO > n_db)
    members = None if whole_row[scored].all() else np.argsort(database.labels)
    n_scored = int(scored.sum())
    if n_scored == 0:
        raise UndefinedAPError("no query has any relevant database item")

    block = max(1, RANK_BLOCK_BYTES // (8 * n_db))  # queries at a time
    distances = np.empty((block, n_db), dtype=_distance_dtype(database.length))
    for lo in range(0, n_q, block):
        words = queries.words[lo:lo + block]
        rows = _hamming_distances(words, database.words, database.length,
                                  out=distances[:len(words)])
        for qi, row in enumerate(rows, start=lo):
            if not scored[qi]:
                continue
            label = queries.labels[qi]
            if whole_row[qi]:
                # Scored by the public per-query functions, through which
                # perfbench/selftest.py corrupts a ranking for its oracle.
                order = np.argsort(row, kind="stable")
                relevance = database.labels == label
                scores = (average_precision(order, relevance),
                          None if k_map is None
                          else average_precision(order, relevance, cutoff=k_map),
                          precision_at_k(order, relevance, k_prec))
            else:
                # Every code ranked ahead of a relevant one is no farther
                # than the class's farthest code, so ranking those
                # candidates alone gives each relevant code its whole-row rank.
                own = members[first[qi]:first[qi] + size[qi]]
                candidates = np.flatnonzero(row <= row[own].max())
                order = candidates[np.argsort(row[candidates], kind="stable")]
                hits = np.flatnonzero(database.labels[order] == label)
                scores = _scores(hits, int(size[qi]), k_map, k_prec)
            ap_full[qi], cut, prec[qi] = scores
            if k_map is not None:
                ap_cut[qi] = cut

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
