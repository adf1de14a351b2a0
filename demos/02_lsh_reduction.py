"""Reducing long codewords to the working bit length with sign-LSH.

Run from the repo root:  python demos/02_lsh_reduction.py
"""

import numpy as np

from hcoh import HadamardCodebook, LshReducer, lsh

# The order-256 Hadamard matrix, entry (i, j) = (-1)**popcount(i & j).
idx = np.arange(256)
h = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(int)

# ---------------------------------------------------------------------------
# A reducer from 256 to 64 bits keeps a fixed seeded Gaussian matrix P and
# gives codeword c the target sign(P.T @ c).  H is symmetric, so the
# targets of all 256 columns are the rows of one table, T = sign(H @ P),
# which the reducer builds on first use by a fast Walsh-Hadamard
# transform of P.  Compare it with the dense product.
# ---------------------------------------------------------------------------
reducer = LshReducer.create(256, 64, seed=7)
p = np.random.default_rng(7).standard_normal((256, 64))
print("reducer.table == sign(H @ P):",
      np.array_equal(reducer.table, np.where(h @ p >= 0, 1, -1)))

# ---------------------------------------------------------------------------
# Orthogonal inputs agree per bit with probability 1/2, so their reduced
# codes sit near normalized Hamming distance 0.5; identical inputs always
# collide.  Estimate the distance distribution over many projections.
# ---------------------------------------------------------------------------
distances = []
for seed in range(2000):
    table = LshReducer.create(256, 64, seed=seed).table
    distances.append(np.mean(table[1] != table[2]))
distances = np.asarray(distances)
print(f"orthogonal inputs, 256 -> 64 bits over {len(distances)} projections:")
print(f"  mean normalized distance {distances.mean():.4f} "
      f"(std {distances.std():.4f}, theory: 0.5 +- 0.0625)")

# ---------------------------------------------------------------------------
# Training reads a label's target as the table row of its column.
# ---------------------------------------------------------------------------
book = HadamardCodebook.create(256, seed=1)
targets = lsh.targets([2, 5, 2, 2, 5], book, reducer)
print("labels seen: [2, 5, 2, 2, 5] -> columns:", book.assignment)
print("identical inputs distance:", int(np.sum(targets[0] != targets[2])))
print("target for label 2 is its table row:",
      np.array_equal(targets[0], reducer.table[book.assignment[2]]))

# ---------------------------------------------------------------------------
# When the codebook order already equals the code length the reducer is
# the identity: P is the identity matrix and the table is H itself.
# ---------------------------------------------------------------------------
identity = LshReducer.create(256, 256, seed=0)
print("identity reducer:", identity.is_identity,
      "| table == H:", np.array_equal(identity.table, h))
