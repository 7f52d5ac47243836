"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) and an OSError from writing a file -> 3,
NumericError -> 4. Everything else is a plain bug and escapes as a
traceback.
"""


class ReidLabError(Exception):
    """Base class for all errors raised on purpose by this package."""


class ConfigError(ReidLabError, ValueError):
    """Invalid or inconsistent configuration (bad keys, bad values)."""


class DataError(ReidLabError, ValueError):
    """Invalid data: bad labels, degenerate batches, malformed files."""


class ShapeError(DataError):
    """Array shapes do not line up (a specific kind of data error)."""


class NumericError(ReidLabError, ArithmeticError):
    """Numerical failure: non-finite values where finite ones are required."""


class StateError(ReidLabError, RuntimeError):
    """API misuse: an operation was called in a state that cannot support it."""
