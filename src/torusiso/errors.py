"""Exception types shared across the package."""


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
