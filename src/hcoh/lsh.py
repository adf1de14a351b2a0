"""Random-projection reduction of codewords to the working bit length.

When the codebook order exceeds the requested code length r, each
codeword is mapped through a fixed random Gaussian matrix and re-signed:

    target = sign(P.T @ codeword),   P[i, j] ~ N(0, 1) i.i.d.

Sign-of-Gaussian-projection is the classic angle-preserving LSH family:
two inputs at angle theta agree per output bit with probability
1 - theta/pi, so orthogonal codewords land at expected normalized
Hamming distance 0.5 while equal codewords collide exactly.  When the
dimensions already match the reducer is the identity and codewords pass
through untouched.

The codewords are the columns of the Sylvester matrix H, which is
symmetric, so the targets of all order columns are the rows of
T = sign(H @ P).  ``targets`` resolves labels through that table: the
reducer builds T once, on the first call that needs it, by one in-place
fast Walsh-Hadamard transform of P (log2(order) butterfly stages of
elementwise adds and subtracts, in a fixed order, so T does not depend
on the BLAS build or thread count) and keeps it as a read-only
order x r int8 array; P itself is dropped.  The identity reducer builds
no table and returns Sylvester columns.  ``projection`` is drawn from
the seed only when ``reduce`` first needs it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .hadamard import HadamardCodebook, _column

# Entries of P that one butterfly pass adds and subtracts at a time: its
# float64 sums then take a 512 KiB buffer rather than half of P.
BUTTERFLY_ENTRIES = 2**16


def sign_pm1(values: np.ndarray) -> np.ndarray:
    """Elementwise sign into {-1,+1} with sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def _fwht_rows(p: np.ndarray) -> None:
    """Replace the (order, k) float64 array ``p`` by H @ p, in place.

    Stage h pairs row blocks [i, i + h) and [i + h, i + 2h) into their sum
    and difference, for h = 1, 2, 4, ... < order: Sylvester's recursion
    applied from the inside out.  Each pass handles at most
    BUTTERFLY_ENTRIES entries of each half.
    """
    order = p.shape[0]
    buffer = np.empty(min(BUTTERFLY_ENTRIES, p.size // 2), dtype=np.float64)
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


def _target_table(order: int, bits: int, seed: int) -> np.ndarray:
    """Read-only (order, bits) int8 table sign(H @ P) for P drawn from ``seed``.

    Row j is the reduced target of Sylvester column j, with sign(0) = +1.
    """
    p = np.random.default_rng(seed).standard_normal((order, bits))
    _fwht_rows(p)
    table = np.less(p, 0).view(np.int8)
    table *= -2
    table += 1
    table.setflags(write=False)
    return table


@dataclass
class LshReducer:
    """Fixed seeded Gaussian projection from in_dim to out_dim signs.

    The reducer is exactly the identity when in_dim == out_dim, and then
    ``projection`` and ``table`` are None.  Everything is regenerable
    from (in_dim, out_dim, seed), which is all that checkpoints persist,
    and nothing is drawn until it is first read.
    """

    in_dim: int
    out_dim: int
    seed: int

    @classmethod
    def create(cls, in_dim: int, out_dim: int, seed: int) -> "LshReducer":
        if in_dim < 1 or out_dim < 1:
            raise DimensionError(
                f"reducer dims must be positive, got {in_dim}x{out_dim}")
        return cls(in_dim=in_dim, out_dim=out_dim, seed=seed)

    @property
    def is_identity(self) -> bool:
        return self.in_dim == self.out_dim

    @cached_property
    def projection(self) -> np.ndarray:
        """The read-only (in_dim, out_dim) float64 matrix P, or None."""
        if self.is_identity:
            return None
        projection = np.random.default_rng(self.seed).standard_normal(
            (self.in_dim, self.out_dim))
        projection.setflags(write=False)
        return projection

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only (in_dim, out_dim) int8 targets sign(H @ P), or None."""
        if self.is_identity:
            return None
        return _target_table(self.in_dim, self.out_dim, self.seed)

    def reduce(self, codewords: np.ndarray) -> np.ndarray:
        """Map in_dim sign vectors to out_dim sign vectors, as int8.

        Takes one codeword (in_dim,) or a stack of them (k, in_dim) and
        returns (out_dim,) or (k, out_dim) to match.
        """
        codewords = np.asarray(codewords)
        if codewords.ndim not in (1, 2) or codewords.shape[-1] != self.in_dim:
            raise DimensionError(
                f"codewords have shape {codewords.shape}, expected "
                f"([k,] {self.in_dim})")
        if self.is_identity:
            return codewords.astype(np.int8)
        return sign_pm1(codewords @ self.projection)


def targets(labels, book: HadamardCodebook, reducer: LshReducer) -> np.ndarray:
    """(n, out_dim) float64 target codes of ``labels``, row for row.

    Labels new to ``book`` take codebook columns in the order they first
    appear in ``labels``.  When the codebook runs out mid-call,
    CodebookExhaustedError propagates with the labels before the failing
    one assigned, as a label-by-label loop would leave them.  Each
    distinct label's code is the reducer's table row for its column, or
    the column itself for the identity reducer, gathered once and then
    spread to its rows.
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
    if reducer.is_identity:
        codes = _column(book.order, columns)
    else:
        codes = reducer.table[columns]
    return codes[inverse].astype(np.float64)
