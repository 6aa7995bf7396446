"""Exception hierarchy shared by all sgfcf modules."""

import math
import numbers


class SgfcfError(Exception):
    """Base class for all errors raised by this package."""


class MissingFile(SgfcfError):
    pass


class MalformedLine(SgfcfError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DegenerateSplit(SgfcfError):
    pass


class EmptyTrainSplit(SgfcfError):
    pass


class SizeCapExceeded(SgfcfError):
    pass


class KTooLarge(SgfcfError):
    pass


class ConvergenceFailure(SgfcfError):
    pass


class InvalidTotal(SgfcfError):
    pass


class LengthMismatch(SgfcfError):
    pass


class OddDelta(SgfcfError):
    pass


class UnknownUser(SgfcfError):
    pass


class EmptyTestSet(SgfcfError):
    pass


class NoEvaluableUsers(SgfcfError):
    pass


class EmptyValidation(SgfcfError):
    pass


class ConfigError(SgfcfError):
    pass


def _check_bounds(name: str, value, lo, hi, error: type[SgfcfError]) -> None:
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{name} must be {bound}, got {value}")


def check_integer(name: str, value, lo=None, hi=None, error: type[SgfcfError] = ConfigError) -> None:
    """Raise ConfigError unless ``value`` is an integer; a bool, or a float
    such as 2.0, is not one. An integer below ``lo`` or above ``hi`` (a
    bound left None is open; ``hi`` comes with ``lo``) raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    _check_bounds(name, value, lo, hi, error)


def check_real(name: str, value, lo=None, hi=None) -> None:
    """Raise ConfigError unless ``value`` is a finite real number, not a
    bool, inside the closed bounds ``lo`` and ``hi`` as ``check_integer``
    takes them."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    _check_bounds(name, value, lo, hi, ConfigError)
