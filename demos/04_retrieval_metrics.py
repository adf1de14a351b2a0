"""Hamming-ranking metrics on a toy example you can check by hand.

Run from the repo root:  python demos/04_retrieval_metrics.py
"""

import numpy as np

from hcoh import (BinaryCodeSet, average_precision, evaluate, map_curve_auc,
                  pack_bits, precision_at_k, rank)

# Four 4-bit database codes at Hamming distance 0, 1, 2, 3 from the query.
db_bits = [[0, 0, 0, 0],
           [1, 0, 0, 0],
           [1, 1, 0, 0],
           [1, 1, 1, 0]]
database = BinaryCodeSet(pack_bits(db_bits), labels=[0, 1, 0, 1], length=4)
queries = BinaryCodeSet(pack_bits([[0, 0, 0, 0]]), labels=[0], length=4)

ranking = rank(queries, database)[0]
print("ranking by ascending distance:", ranking.tolist())

# The query's class appears at ranks 1 and 3, so
#   AP = (1/2) * (1/1 + 2/3) = 5/6.
relevance = database.labels == queries.labels[0]
print("relevance in ranked order:   ", relevance[ranking].astype(int).tolist())
print(f"average precision: {average_precision(ranking, relevance):.4f} "
      f"(5/6 = {5 / 6:.4f})")
print("precision@2:", precision_at_k(ranking, relevance, 2))
print("precision@4:", precision_at_k(ranking, relevance, 4))

report = evaluate(queries, database, k_prec=4, k_map=2)
print("full report:", report.to_record())

# A learning curve's quality in one number: trapezoidal area under
# mAP-vs-instances, normalized by the x-range.
curve = [(0, 0.10), (5000, 0.60), (10000, 0.70), (20000, 0.72)]
print(f"AUC of {curve}: {map_curve_auc(curve):.4f}")
flat = [(0, 0.72), (20000, 0.72)]
print(f"AUC of an always-{flat[0][1]} learner: {map_curve_auc(flat):.4f}")
