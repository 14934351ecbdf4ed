"""Exception types raised by input validation and the fitting pipeline."""


class BivasError(Exception):
    """Base class for all package errors."""


class NonNumeric(BivasError):
    """A table cell could not be parsed as a number."""


class NaNPresent(BivasError):
    """Input contains NaN or infinite entries."""


class RankDeficientZ(BivasError):
    """Covariate matrix Z is numerically rank deficient."""


class EmptyGroup(BivasError):
    """A declared group id has no member columns."""


class DimensionMismatch(BivasError):
    """Array shapes are inconsistent with each other."""


class InvalidCount(BivasError):
    """A count argument is out of its valid range."""


class InvalidThreshold(BivasError):
    """A probability threshold or prior value is outside (0, 1)."""


class TooLarge(BivasError):
    """Instance exceeds the exact-enumeration budget."""


class DegenerateLabels(BivasError):
    """Binary labels are all zero or all one."""
