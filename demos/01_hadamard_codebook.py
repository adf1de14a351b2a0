"""Walk through the Hadamard codebook: construction and streaming assignment.

Run from the repo root:  python demos/01_hadamard_codebook.py
"""

import numpy as np

from hcoh import (CodebookExhaustedError, HadamardCodebook, build_hadamard,
                  codeword_order)

# ---------------------------------------------------------------------------
# Every power-of-two order has a Hadamard matrix by Sylvester's doubling.
# Rows and columns are pairwise orthogonal: H @ H.T == order * I exactly.
# ---------------------------------------------------------------------------
h8 = build_hadamard(8)
print("order-8 Hadamard matrix:")
print(h8)
print("H @ H.T == 8 * I:", np.array_equal(h8.astype(int) @ h8.T.astype(int),
                                          8 * np.eye(8, dtype=int)))

# ---------------------------------------------------------------------------
# The codebook order is the smallest power of two covering both the code
# length and however many class labels we expect to meet in the stream.
# ---------------------------------------------------------------------------
for bits, labels in [(32, 10), (8, 10), (64, 205)]:
    print(f"bits={bits:<3} labels<={labels:<4} -> codeword order "
          f"{codeword_order(bits, labels)}")

# ---------------------------------------------------------------------------
# Labels claim columns as they first appear: the k-th new label takes the
# k-th entry of a seeded permutation of the columns, so reruns reproduce
# the same assignment and no two classes ever share a codeword.  The
# codebook never builds H; it computes a column, (-1)**popcount(i & j)
# over the rows i, when a label asks for it.
# ---------------------------------------------------------------------------
book = HadamardCodebook.create(order=8, seed=42)
for label in [3, 1, 3, 7]:  # label 3 arrives twice
    print(f"label {label} -> column {book.assign_label(label)}")
print("columns left to draw:", book.order - len(book.assignment))
print("codeword(3) is that column of H:",
      np.array_equal(book.codeword(3), h8[:, book.assignment[3]]))

a = book.codeword(3).astype(int)
b = book.codeword(1).astype(int)
print("codeword(3) . codeword(1) =", a @ b, "(orthogonal classes)")

# A ninth distinct label cannot fit into an order-8 book:
for label in range(10, 15):
    try:
        book.assign_label(label)
    except CodebookExhaustedError as exc:
        print("exhausted as expected:", exc)
        break
