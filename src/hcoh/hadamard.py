"""Power-of-two Hadamard matrices and streaming codeword assignment.

A Hadamard matrix of order n is a square {-1,+1} matrix C with pairwise
orthogonal rows and columns, i.e. C @ C.T == n * I exactly in integer
arithmetic.  Columns of such a matrix make good per-class target codes:
any two distinct classes sit at the maximal possible Hamming separation
(n/2 differing positions).

Sylvester's recursion builds orders 2**k,

    H_1 = [1],   H_2m = [[H_m,  H_m],
                         [H_m, -H_m]]

and is equivalent to entry(i, j) = (-1)**popcount(i & j) with 0-based
indices.  The codebook never builds the matrix: it computes columns from
that closed form, O(order) each, when labels need them: one column for
``codeword``, and a (n, order) stack of them for a training block's n
rows when the reducer is the identity (``lsh.targets``).  A reducer to
fewer bits needs no column: its target table is a transform of the
projection by the same recursion.  Beware the superficially similar
(-1)**((i-1)*(j-1)) with ordinary multiplication: it is wrong for
order >= 4 (rows 1 and 3 come out identical).

The codebook hands columns out to class labels as they first appear in a
stream: the k-th new label gets the k-th column of a permutation drawn
from a seeded generator, so runs are reproducible and no label count has
to be fixed up front beyond the order itself.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CodebookExhaustedError, InvalidOrderError, UnknownLabelError

# Largest codebook order.  The matrix is never stored, but the LSH reducer
# that maps codewords to r bits keeps an order x r int8 target table, 32 MiB
# at 2**20 rows and 32 bits, and builds it from a transient order x r float64
# projection, 256 MiB there.
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


def _column(order: int, columns) -> np.ndarray:
    """Sylvester columns as int8 rows: (-1)**popcount(i & j) over i.

    A single index j gives the (order,) column; an array of k indices
    gives their (k, order) stack.
    """
    j = np.asarray(columns, dtype=np.uint32)[..., None]
    parity = np.bitwise_count(np.arange(order, dtype=np.uint32) & j) & 1
    return 1 - 2 * parity.astype(np.int8)


def build_hadamard(order: int) -> np.ndarray:
    """Sylvester-construction Hadamard matrix of the given power-of-two order.

    Returns an (order, order) int8 array with entries in {-1,+1} satisfying
    H @ H.T == order * I exactly: the dense reference for tests and demos.
    """
    _check_order(order)
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


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

    def codeword(self, label: int) -> np.ndarray:
        """The {-1,+1} column assigned to ``label`` (length ``order``)."""
        label = int(label)
        if label not in self.assignment:
            raise UnknownLabelError(f"label {label} has no assigned codeword")
        return _column(self.order, self.assignment[label])
