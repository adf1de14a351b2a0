"""Brute-force retrieval oracle, independent of ``hcoh.evaluation``.

It unpacks the packed code words itself, counts differing bits by XOR,
orders the database with its own stable sort (``lexsort`` on distance,
then database index), and computes AP and Precision@K from the ordered
relevance list with the textbook formulas.  :func:`check` compares it
with what ``hcoh.evaluation.evaluate`` reports for the same queries.
"""

import numpy as np

TOLERANCE = 1e-12


def unpack(words: np.ndarray, length: int) -> np.ndarray:
    """(n, w) uint64 words, bit j of a code at word j//64, bit j%64 -> (n, length) bool."""
    words = np.ascontiguousarray(words, dtype="<u8")
    shifts = np.arange(64, dtype=np.uint64)
    bits = (words[:, :, None] >> shifts) & np.uint64(1)
    return bits.reshape(words.shape[0], -1)[:, :length].astype(bool)


def scores(q_bits, q_labels, db_bits, db_labels, k_prec):
    """Per-query (AP, P@K) over queries with at least one relevant item.

    Returns (ap, p_at_k, scored_mask).
    """
    n_q, n_db = q_bits.shape[0], db_bits.shape[0]
    index = np.arange(n_db)
    ap = np.zeros(n_q)
    p_at_k = np.zeros(n_q)
    scored = np.zeros(n_q, dtype=bool)
    for i in range(n_q):
        distance = np.logical_xor(db_bits, q_bits[i]).sum(axis=1)
        order = np.lexsort((index, distance))
        relevant = db_labels[order] == q_labels[i]
        hits = np.flatnonzero(relevant)
        if hits.size == 0:
            continue
        scored[i] = True
        ap[i] = np.mean(np.arange(1, hits.size + 1) / (hits + 1.0))
        p_at_k[i] = relevant[:k_prec].sum() / k_prec
    return ap, p_at_k, scored


def check(queries, database, report, k_prec) -> list:
    """Compare an EvalReport for ``queries`` against the oracle.

    ``queries`` and ``database`` are hcoh BinaryCodeSets; ``report`` is
    what ``hcoh.evaluation.evaluate`` returned for them.  Returns a list
    of mismatch descriptions, empty when the report agrees.
    """
    ap, p_at_k, scored = scores(unpack(queries.words, queries.length),
                                queries.labels,
                                unpack(database.words, database.length),
                                database.labels, k_prec)
    problems = []
    if report.n_skipped != int((~scored).sum()):
        problems.append(f"n_skipped {report.n_skipped} != oracle {(~scored).sum()}")
        return problems
    if report.per_query_ap.shape != (int(scored.sum()),):
        problems.append("per-query AP count differs from the oracle")
        return problems
    worst = float(np.max(np.abs(report.per_query_ap - ap[scored]), initial=0.0))
    if worst > TOLERANCE:
        problems.append(f"per-query AP differs from the oracle by {worst:.3g}")
    if scored.any():
        if abs(report.map - ap[scored].mean()) > TOLERANCE:
            problems.append(f"mAP {report.map!r} != oracle {ap[scored].mean()!r}")
        if abs(report.precision_at_k - p_at_k[scored].mean()) > TOLERANCE:
            problems.append(f"P@{k_prec} {report.precision_at_k!r} != oracle "
                            f"{p_at_k[scored].mean()!r}")
    return problems
