"""Power-of-two Hadamard codebooks and streaming codeword assignment.

A Hadamard matrix of order n is a square {-1,+1} matrix C with pairwise
orthogonal rows and columns, i.e. C @ C.T == n * I exactly in integer
arithmetic.  Columns of such a matrix make good per-class target codes:
any two distinct classes sit at the maximal possible Hamming separation
(n/2 differing positions).

Sylvester's recursion builds orders 2**k,

    H_1 = [1],   H_2m = [[H_m,  H_m],
                         [H_m, -H_m]]

and is equivalent to entry(i, j) = (-1)**popcount(i & j) with 0-based
indices.  Beware the superficially similar (-1)**((i-1)*(j-1)) with
ordinary multiplication: it is wrong for order >= 4 (rows 1 and 3 come
out identical).  This module never builds H or any column of it: a
label's codeword is only ever used through its reduced target, and the
reducer's target table sign(H @ P) applies the recursion to P directly
(``lsh``).  For the identity reducer that table is H itself.

The codebook hands columns out to class labels as they first appear in a
stream: the k-th new label gets the k-th column of a permutation drawn
from a seeded generator, so runs are reproducible and no label count has
to be fixed up front beyond the order itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CodebookExhaustedError, InvalidOrderError

# Largest codebook order.  The matrix is never stored, but the LSH reducer
# that maps codewords to r bits keeps an order x r int8 target table, 32 MiB
# at 2**20 rows and 32 bits, and builds it from a transient order x r float64
# projection, 256 MiB there.  An identity reducer (r == order) builds its
# order x order table from an int8 identity, 2 * order**2 bytes at the peak.
MAX_ORDER = 2**20


def codeword_order(r: int, known_labels: int = 0) -> int:
    """Smallest power of two >= max(r, known_labels, 2).

    This is the order of the square codebook matrix needed to give every
    one of ``known_labels`` classes its own column of at least ``r``
    entries.  ``known_labels`` may be a lower bound; streams that exceed
    the chosen order raise :class:`CodebookExhaustedError` at assignment
    time rather than silently rebuilding.
    """
    if r < 1:
        raise InvalidOrderError(f"code length must be >= 1, got {r}")
    order = 2
    target = max(r, known_labels)
    while order < target:
        order *= 2
    return order


def _check_order(order: int) -> None:
    if order < 1 or order & (order - 1) != 0:
        raise InvalidOrderError(f"order must be a power of two, got {order}")
    if order > MAX_ORDER:
        raise InvalidOrderError(f"order {order} exceeds the cap {MAX_ORDER}")


@dataclass
class HadamardCodebook:
    """A dynamic label -> column map onto an order x order Sylvester matrix.

    The k-th label to arrive takes column ``_draw[k]`` of a permutation
    fixed by ``seed`` (PCG64), so the assignment holds exactly the columns
    ``_draw[:len(assignment)]`` and no column is ever reused.
    """

    order: int
    seed: int
    assignment: dict = field(default_factory=dict)
    _draw: np.ndarray = None

    @classmethod
    def create(cls, order: int, seed: int) -> "HadamardCodebook":
        _check_order(order)
        draw = np.random.default_rng(seed).permutation(order)
        return cls(order=order, seed=seed, _draw=draw)

    @classmethod
    def restore(cls, order: int, seed: int, assignment: dict) -> "HadamardCodebook":
        """Rebuild a codebook persisted as (order, seed, assignment pairs).

        The draw order is recomputed from the seed.  The k recorded columns
        must be exactly the first k draws; anything else raises
        InvalidOrderError.
        """
        book = cls.create(order, seed)
        prefix = book._draw[:len(assignment)].tolist()
        if sorted(assignment.values()) != sorted(prefix):
            raise InvalidOrderError(
                f"the {len(assignment)} assigned columns are not the first "
                f"{len(assignment)} draws of seed {seed} at order {order}")
        book.assignment = {int(k): int(v) for k, v in assignment.items()}
        return book

    def assign_label(self, label: int) -> int:
        """Column index for ``label``, drawing the next column on first sight.

        Idempotent per label.  Raises CodebookExhaustedError when a new
        label arrives after all columns have been handed out.
        """
        label = int(label)
        if label in self.assignment:
            return self.assignment[label]
        if len(self.assignment) >= self.order:
            raise CodebookExhaustedError(
                f"all {self.order} codewords assigned; cannot admit label {label}. "
                f"Rebuild with a larger declared label bound (see --max-labels).")
        column = int(self._draw[len(self.assignment)])
        self.assignment[label] = column
        return column
