"""Reducing long codewords to the working bit length with sign-LSH.

Run from the repo root:  python demos/02_lsh_reduction.py
"""

import numpy as np

from hcoh import HadamardCodebook, LshReducer, build_hadamard, lsh

# ---------------------------------------------------------------------------
# When the codebook order already equals the code length, nothing happens:
# the reducer is the identity and codewords pass through untouched.
# ---------------------------------------------------------------------------
identity = LshReducer.create(16, 16, seed=0)
codeword = build_hadamard(16)[:, 3]
print("identity reducer:", identity.is_identity,
      "| output == input:", np.array_equal(identity.reduce(codeword), codeword))

# ---------------------------------------------------------------------------
# Otherwise a fixed seeded Gaussian projection re-signs the codeword.
# Orthogonal inputs agree per bit with probability 1/2, so their reduced
# codes sit near normalized Hamming distance 0.5; identical inputs always
# collide.  Estimate the distance distribution over many projections.
# ---------------------------------------------------------------------------
h = build_hadamard(256)
a, b = h[:, 1], h[:, 2]
distances = []
for seed in range(2000):
    reducer = LshReducer.create(256, 64, seed=seed)
    distances.append(np.mean(reducer.reduce(a) != reducer.reduce(b)))
distances = np.asarray(distances)
print(f"orthogonal inputs, 256 -> 64 bits over {len(distances)} projections:")
print(f"  mean normalized distance {distances.mean():.4f} "
      f"(std {distances.std():.4f}, theory: 0.5 +- 0.0625)")

reducer = LshReducer.create(256, 64, seed=7)
print("identical inputs distance:",
      int(np.sum(reducer.reduce(a) != reducer.reduce(a))))

# ---------------------------------------------------------------------------
# Training reads targets from one table: the reduced code of every codebook
# column at once, sign(H @ P), computed by a fast Walsh-Hadamard transform
# of P on first use.  A label's target is the table row of its column.
# ---------------------------------------------------------------------------
book = HadamardCodebook.create(16, seed=1)
reducer = LshReducer.create(16, 8, seed=2)
targets = lsh.targets([2, 5, 2, 2, 5], book, reducer)
print("labels seen: [2, 5, 2, 2, 5] -> columns:", book.assignment)
print("target for label 2:", targets[0].astype(int),
      "| table row:", reducer.table[book.assignment[2]],
      "| reduced codeword:", reducer.reduce(book.codeword(2)))
