"""Random-projection reduction of codewords to the working bit length.

When the codebook order exceeds the requested code length r, each
codeword is mapped through a fixed random Gaussian matrix and re-signed:

    target = sign(P.T @ codeword),   P[i, j] ~ N(0, 1) i.i.d.

Sign-of-Gaussian-projection is the classic angle-preserving LSH family:
two inputs at angle theta agree per output bit with probability
1 - theta/pi, so orthogonal codewords land at expected normalized
Hamming distance 0.5 while equal codewords collide exactly.  When the
dimensions already match, P is the identity and codewords pass through
untouched.

The codewords are the columns of the Sylvester matrix H, which is
symmetric, so the targets of all order columns are the rows of
T = sign(H @ P), and that table is the only way targets are made.  The
reducer builds T once, on the first ``targets`` call, by one in-place
fast Walsh-Hadamard transform of P (log2(order) butterfly stages of
elementwise adds and subtracts, in a fixed order, so T does not depend
on the BLAS build or thread count) and keeps it as a read-only
order x r int8 array; P itself is dropped.  For the identity reducer P
is the int8 identity matrix and T is H itself.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .hadamard import HadamardCodebook, _check_order

# Entries of P that one butterfly pass adds and subtracts at a time: its
# sums then take a 2**16-entry buffer (512 KiB in float64) rather than
# half of P.
BUTTERFLY_ENTRIES = 2**16


def _fwht_rows(p: np.ndarray) -> None:
    """Replace the (order, k) array ``p`` by H @ p, in place.

    Stage h pairs row blocks [i, i + h) and [i + h, i + 2h) into their sum
    and difference, for h = 1, 2, 4, ... < order: Sylvester's recursion
    applied from the inside out.  Each pass handles at most
    BUTTERFLY_ENTRIES entries of each half.  The sums stay in p's dtype.
    That is exact for the int8 identity too: each entry of a column of
    the identity's partial transforms is a sum with at most one nonzero
    term, so every stage keeps entries in {-1, 0, 1}.
    """
    order = p.shape[0]
    buffer = np.empty(min(BUTTERFLY_ENTRIES, p.size // 2), dtype=p.dtype)
    h = 1
    while h < order:
        pairs = p.reshape(order // (2 * h), 2, h * p.shape[1])
        width = pairs.shape[2]
        groups = max(1, BUTTERFLY_ENTRIES // width)
        step = min(width, BUTTERFLY_ENTRIES)
        for g in range(0, pairs.shape[0], groups):
            for lo in range(0, width, step):
                top = pairs[g:g + groups, 0, lo:lo + step]
                bottom = pairs[g:g + groups, 1, lo:lo + step]
                total = buffer[:top.size].reshape(top.shape)
                np.add(top, bottom, out=total)
                np.subtract(top, bottom, out=bottom)
                top[...] = total
        h *= 2


def _target_table(p: np.ndarray) -> np.ndarray:
    """Read-only int8 table sign(H @ p), with sign(0) = +1; overwrites ``p``.

    Row j is the reduced target of Sylvester column j.
    """
    _fwht_rows(p)
    table = np.less(p, 0).view(np.int8)
    table *= -2
    table += 1
    table.setflags(write=False)
    return table


@dataclass
class LshReducer:
    """Fixed seeded Gaussian projection from in_dim to out_dim signs.

    The reducer is exactly the identity when in_dim == out_dim.  The
    order in_dim must be a power of two, as the transform needs.
    Everything is regenerable from (in_dim, out_dim, seed), which is all
    that checkpoints persist, and nothing is drawn until ``table`` is
    first read.
    """

    in_dim: int
    out_dim: int
    seed: int

    @classmethod
    def create(cls, in_dim: int, out_dim: int, seed: int) -> "LshReducer":
        _check_order(in_dim)
        if out_dim < 1:
            raise DimensionError(f"reducer output must be positive, got {out_dim}")
        return cls(in_dim=in_dim, out_dim=out_dim, seed=seed)

    @property
    def is_identity(self) -> bool:
        return self.in_dim == self.out_dim

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only (in_dim, out_dim) int8 targets sign(H @ P)."""
        if self.is_identity:
            p = np.eye(self.in_dim, dtype=np.int8)
        else:
            p = np.random.default_rng(self.seed).standard_normal(
                (self.in_dim, self.out_dim))
        return _target_table(p)


def targets(labels, book: HadamardCodebook, reducer: LshReducer) -> np.ndarray:
    """(n, out_dim) float64 target codes of ``labels``, row for row.

    Labels new to ``book`` take codebook columns in the order they first
    appear in ``labels``.  When the codebook runs out mid-call,
    CodebookExhaustedError propagates with the labels before the failing
    one assigned, as a label-by-label loop would leave them.  Each
    distinct label's code is the reducer's table row for its column,
    gathered once and then spread to its rows.
    """
    if book.order != reducer.in_dim:
        raise DimensionError(
            f"codebook order {book.order} does not match reducer input "
            f"{reducer.in_dim}")
    unique, first, inverse = np.unique(np.asarray(labels, dtype=np.int64),
                                       return_index=True, return_inverse=True)
    assignment = book.assignment
    for label in unique[np.argsort(first)].tolist():
        if label not in assignment:
            book.assign_label(label)
    columns = [assignment[label] for label in unique.tolist()]
    return reducer.table[columns][inverse].astype(np.float64)
