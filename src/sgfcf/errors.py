"""Exception hierarchy shared by all sgfcf modules."""

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


class BandOutOfRange(SgfcfError):
    pass


class EmptyTestSet(SgfcfError):
    pass


class NoEvaluableUsers(SgfcfError):
    pass


class EmptyValidation(SgfcfError):
    pass


class ConfigError(SgfcfError):
    pass


def check_integer(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an integer; a bool, or a float
    such as 2.0, is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
