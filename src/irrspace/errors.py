"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
distinction can catch the usual thing; the CLI maps IrrspaceError to its
data-error exit code.
"""

import operator


class IrrspaceError(ValueError):
    """Base class for all package-specific errors."""


class InvalidInputError(IrrspaceError):
    """Malformed numeric input: wrong dimensionality, non-finite entries."""


class ParameterError(IrrspaceError):
    """A parameter is outside its documented range."""


class DimensionError(IrrspaceError):
    """Operands have incompatible shapes."""


class InvalidBasisError(IrrspaceError):
    """A matrix that must have orthonormal columns does not."""


class EmptyVocabularyError(IrrspaceError):
    """Tokenization left no terms to index."""


class UndefinedMetricError(IrrspaceError):
    """The requested metric is undefined on this input (e.g. no intra pairs)."""


class DataError(IrrspaceError):
    """A file or directory does not hold what its format promises."""


def as_integer(name: str, value) -> int:
    """A Python or numpy integer as int; a bool or anything else is a
    ParameterError.  The one rule for every count or seed argument."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, got {value!r}")
