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

Targets are resolved a block of labels at a time: the labels a block
sees for the first time take their codebook columns in first-sight
order, and their codewords are reduced as one stack by one product
rather than one projection read per label.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .hadamard import HadamardCodebook, _column

# Entries of the (k, order) codeword stack that one reduction takes: its
# float64 copy inside the product is then at most 32 MiB, where 128 new
# labels at MAX_ORDER would need 1 GiB.
STACK_ENTRIES = 2**22


def sign_pm1(values: np.ndarray) -> np.ndarray:
    """Elementwise sign into {-1,+1} with sign(0) = +1."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


@dataclass
class LshReducer:
    """Fixed seeded Gaussian projection from in_dim to out_dim signs.

    ``projection`` is None when in_dim == out_dim; the reducer is then
    exactly the identity.  The matrix is regenerable from (in_dim,
    out_dim, seed), which is all that checkpoints persist.
    """

    in_dim: int
    out_dim: int
    seed: int
    projection: np.ndarray = None

    @classmethod
    def create(cls, in_dim: int, out_dim: int, seed: int) -> "LshReducer":
        if in_dim < 1 or out_dim < 1:
            raise DimensionError(
                f"reducer dims must be positive, got {in_dim}x{out_dim}")
        projection = None
        if in_dim != out_dim:
            rng = np.random.default_rng(seed)
            projection = rng.standard_normal((in_dim, out_dim))
        return cls(in_dim=in_dim, out_dim=out_dim, seed=seed, projection=projection)

    @property
    def is_identity(self) -> bool:
        return self.projection is None

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
        if self.projection is None:
            return codewords.astype(np.int8)
        return sign_pm1(codewords @ self.projection)


@dataclass
class TargetCodeTable:
    """Per-label cache of reduced target codes.

    A label's code is computed once, the first time a call sees it, and
    never changes afterwards; ``codes`` maps each label to its read-only
    int8 code, so a label seen before costs a dictionary lookup.
    """

    out_dim: int
    codes: dict = field(default_factory=dict)

    def targets(self, labels, book: HadamardCodebook,
                reducer: LshReducer) -> np.ndarray:
        """(n, out_dim) float64 target codes of ``labels``, row for row.

        The labels not yet in the table take codebook columns in the
        order they first appear in ``labels``, and their codewords are
        reduced in stacks of at most STACK_ENTRIES entries.  When the
        codebook runs out mid-call, CodebookExhaustedError propagates
        after the labels assigned before it are cached, as a label-by-
        label loop would leave them.
        """
        unique, first, inverse = np.unique(np.asarray(labels, dtype=np.int64),
                                           return_index=True,
                                           return_inverse=True)
        new = [label for label in unique[np.argsort(first)].tolist()
               if label not in self.codes]
        chunk = max(1, STACK_ENTRIES // book.order)
        for lo in range(0, len(new), chunk):
            part, columns = new[lo:lo + chunk], []
            try:
                for label in part:
                    columns.append(book.assign_label(label))
            finally:    # also on exhaustion: cache the labels assigned so far
                if columns:
                    codes = reducer.reduce(_column(book.order, columns))
                    if codes.shape[1] != self.out_dim:
                        raise DimensionError(
                            f"reducer emitted {codes.shape[1]} bits, table "
                            f"expects {self.out_dim}")
                    codes.setflags(write=False)
                    self.codes.update(zip(part, codes))
        codes = np.array([self.codes[label] for label in unique.tolist()],
                         dtype=np.float64)
        return codes.reshape(len(unique), self.out_dim)[inverse]

    def __len__(self) -> int:
        return len(self.codes)
