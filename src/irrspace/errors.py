"""Exception types shared across the package, and its argument rules.

Everything derives from ValueError so callers that do not care about the
distinction can catch the usual thing; the CLI maps IrrspaceError to its
data-error exit code.  Counts and seeds are checked by ``as_integer``, real
parameters by ``as_real`` and arrays by ``linalg.as_matrix``, and nowhere else.
A parameter type stores a numpy scalar through ``as_python``.
"""

import math
import numbers
import operator

import numpy as np


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


def _checked(name: str, kind: str, value, number, low, high, open_low=False):
    """``number`` if it is not None and in range, else the rules' one error."""
    if number is not None and (low is None or number > low or number == low and not open_low):
        if high is None or number <= high:
            return number
    if high is not None:
        kind += f" in {'(' if open_low else '['}{low}, {high}]"
    elif low is not None:
        kind += f" {'>' if open_low else '>='} {low}"
    raise ParameterError(f"{name} must be {kind}, got {value!r}")


def as_integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """A Python or numpy integer, not a bool, in [low, high], as int."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    return _checked(name, "an integer", value, number, low, high)


def as_real(name: str, value, low=None, high=None, *, open_low: bool = False) -> float:
    """A finite ``numbers.Real``, not a bool, in [low, high] (in (low, high]
    with ``open_low``), as float."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        number = float(value) if real and math.isfinite(value) else None
    except OverflowError:  # an int past the float range
        number = None
    return _checked(name, "a finite number", value, number, low, high, open_low)


def as_python(value):
    """A numpy scalar as its Python equivalent (``value.item()``), so that it
    saves as JSON; any other value as given."""
    return value.item() if isinstance(value, np.generic) else value
