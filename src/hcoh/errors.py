"""Exception types shared across the package.

Each class carries the exit code the CLI gives it as ``exit_code``:
configuration problems exit 2, data problems (unreadable or malformed
files, mismatched shapes) exit 3, and numeric failures during training
exit 4.  A subclass that sets none inherits the data error's 3.
"""


class HcohError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class InvalidOrderError(HcohError, ValueError):
    """A codebook order or a reducer's target table is out of bounds.

    The order must be a power of two no larger than MAX_ORDER, and a
    reducer's order x r table must hold at most MAX_TABLE_ENTRIES entries.
    """


class CodebookExhaustedError(HcohError, RuntimeError):
    """A new label arrived but every codeword column is already assigned.

    The codebook cannot be grown in place without invalidating all target
    codes handed out so far; rebuild with a larger declared label bound.
    """

    exit_code = 2


class DimensionError(HcohError, ValueError):
    """Operands have incompatible shapes or lengths."""


class NumericFailureError(HcohError, ArithmeticError):
    """The model's numbers overflowed.

    A training update produced a non-finite parameter value, or
    ``encode`` found weights that overflow a pre-activation of finite
    features.
    """

    exit_code = 4

    def __init__(self, message, round_index=None):
        super().__init__(message)
        self.round_index = round_index


class UndefinedAPError(HcohError, ValueError):
    """Average precision requested for a query with no relevant items."""


class FormatError(HcohError, ValueError):
    """A binary file failed to parse (bad magic, truncation, bad counts)."""


class ConfigError(HcohError, ValueError):
    """Invalid run configuration (bad flag values, infeasible splits)."""

    exit_code = 2
