"""Exception hierarchy shared by all framekit modules.

Each class carries the exit code the CLI returns for it and the label it
prints before the message, "<label>: <message>" on stderr.
"""


class FramekitError(Exception):
    """Base class for all framekit errors."""

    exit_code = 2
    label = "error"


class InvalidMatrix(FramekitError):
    """Matrix input has non-finite entries or an illegal shape."""

    label = "invalid input"


class DimensionMismatch(FramekitError):
    """Vector or matrix lengths do not agree."""

    label = "invalid input"


class InvalidIndex(FramekitError):
    """Grid or coefficient index out of range."""

    label = "invalid input"


class InvalidArgument(FramekitError):
    """Scalar argument outside its legal range."""

    label = "invalid input"


class ZeroSpan(FramekitError):
    """The frame system spans only the zero subspace."""

    exit_code = 3
    label = "degenerate input"


class NotAFrame(FramekitError):
    """Operation requires a strictly positive lower frame bound."""

    exit_code, label = ZeroSpan.exit_code, ZeroSpan.label


class NotConverged(FramekitError):
    """An iterative eigensolver stopped at its sweep limit before converging."""


class Violation(FramekitError):
    """A mathematical assertion failed: an identity residual or a Hilbert table."""

    exit_code = 4
    label = "violation"
