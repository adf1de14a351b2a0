"""Reducing long codewords to the working bit length with sign-LSH.

Run from the repo root:  python demos/02_lsh_reduction.py
"""

import numpy as np

from hcoh import HadamardCodebook, LshReducer, TargetCodeTable, build_hadamard

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
# Training reads targets through a per-label cache, so each class costs
# one assignment + one projection, ever.  A call resolves a whole block of
# labels; the new ones are projected together as one stack of codewords.
# ---------------------------------------------------------------------------
book = HadamardCodebook.create(16, seed=1)
reducer = LshReducer.create(16, 8, seed=2)
table = TargetCodeTable(out_dim=8)
table.targets([2, 5, 2, 2, 5], book, reducer)
print("labels seen: [2, 5, 2, 2, 5] -> cached targets:", len(table))
print("target for label 2:", table.codes[2])
