"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, NumericError -> 4. Everything else
is a plain bug and escapes as a traceback. require_int and require_real
are the type checks config readers run before comparing or coercing a
value.
"""

import numbers


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


def require_int(name: str, value) -> None:
    """ConfigError unless value is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """ConfigError unless value is a real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
