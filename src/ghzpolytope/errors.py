"""Exception types shared across the package."""


class GhzPolytopeError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(GhzPolytopeError, ValueError):
    """An argument violates a precondition (bad index, bad subset, bad vector)."""


class UnsupportedSizeError(GhzPolytopeError, ValueError):
    """The requested qubit count exceeds the documented cap for this operation."""
