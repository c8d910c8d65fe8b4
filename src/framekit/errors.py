"""Exception hierarchy shared by all framekit modules."""


class FramekitError(Exception):
    """Base class for all framekit errors."""


class InvalidMatrix(FramekitError):
    """Matrix input has non-finite entries or an illegal shape."""


class DimensionMismatch(FramekitError):
    """Vector or matrix lengths do not agree."""


class InvalidIndex(FramekitError):
    """Grid or coefficient index out of range."""


class InvalidArgument(FramekitError):
    """Scalar argument outside its legal range."""


class ZeroSpan(FramekitError):
    """The frame system spans only the zero subspace."""


class NotAFrame(FramekitError):
    """Operation requires a strictly positive lower frame bound."""


class NotConverged(FramekitError):
    """An iterative eigensolver stopped at its sweep limit before converging."""
