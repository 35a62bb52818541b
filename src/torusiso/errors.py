"""Exception types shared across the package, and its one positive-finite check."""

import math


class TorusIsoError(Exception):
    """Base class for every error raised by this package."""


class GuardError(TorusIsoError, ValueError):
    """A parameter is outside the range the computation is valid for."""


class DomainError(TorusIsoError, ValueError):
    """Mathematically invalid input: wrong sign, inconsistent dimensions."""


class ConsistencyError(TorusIsoError, RuntimeError):
    """A structural assumption the pipeline relies on failed to hold."""


class SpecFileError(TorusIsoError, ValueError):
    """A manifold spec file could not be parsed."""


class CurveParseError(TorusIsoError, ValueError):
    """A tabulated-curve file could not be parsed."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


def positive_finite(value, name: str):
    """``value`` itself, if it is a positive finite real; else a DomainError naming ``name``.

    It converts nothing: a caller that accepts strings or ints calls float()
    first, and a value that does not compare with 0.0 raises TypeError.
    """
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")
    return value
