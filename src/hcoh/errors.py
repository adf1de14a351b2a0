"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems (unreadable or malformed files, mismatched shapes) exit 3, and
numeric failures during training exit 4.
"""


class HcohError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrderError(HcohError, ValueError):
    """Requested Hadamard order is not a power of two or exceeds the cap."""


class CodebookExhaustedError(HcohError, RuntimeError):
    """A new label arrived but every codeword column is already assigned.

    The codebook cannot be grown in place without invalidating all target
    codes handed out so far; rebuild with a larger declared label bound.
    """


class DimensionError(HcohError, ValueError):
    """Operands have incompatible shapes or lengths."""


class NumericFailureError(HcohError, ArithmeticError):
    """A training update produced a non-finite parameter value."""

    def __init__(self, message, round_index=None):
        super().__init__(message)
        self.round_index = round_index


class UndefinedAPError(HcohError, ValueError):
    """Average precision requested for a query with no relevant items."""


class FormatError(HcohError, ValueError):
    """A binary file failed to parse (bad magic, truncation, bad counts)."""


class ConfigError(HcohError, ValueError):
    """Invalid run configuration (bad flag values, infeasible splits)."""
