"""Exception and warning types shared across the package, and the integer check."""

import math
import numbers


class EsbError(Exception):
    """Base class for errors raised by this package."""


class DomainError(EsbError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MomentDoesNotExistError(DomainError):
    """A requested moment diverges for the given shape parameters."""


class BracketError(EsbError, ValueError):
    """A root-finding bracket does not contain a sign change."""


class NoBracketError(BracketError):
    """No sign-change bracket could be located for a score equation."""


class NonConvergenceError(EsbError, RuntimeError):
    """An iterative routine exhausted its budget without meeting tolerance."""


class DegenerateDataError(EsbError, ValueError):
    """The data admit no meaningful fit (constant sample, zero spread, ...)."""


class SmallSampleError(DegenerateDataError):
    """Fewer observations than the minimum the fitter accepts."""


class ParseError(EsbError, ValueError):
    """A data file could not be parsed.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending record, when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DensityLimitWarning(RuntimeWarning):
    """The density was evaluated where it diverges and a saturated value was returned."""


def whole_number(value, what, minimum=1):
    """value as an int: a count, order or seed.

    Accepts an integral number, or a finite real equal to one, of at least
    minimum (1 or 0); raises DomainError for anything else, so infinities,
    nan and fractions never reach int().
    """
    if isinstance(value, numbers.Integral):
        whole = int(value)
    elif isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value):
        whole = int(value)
    else:
        whole = None
    if whole is None or whole < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise DomainError(f"{what} must be a {kind} integer, got {value!r}")
    return whole
