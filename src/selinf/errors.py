"""Exception hierarchy shared across the package."""


class SelinfError(Exception):
    """Base class for every error raised by this package."""


class InvalidValue(SelinfError, ValueError):
    """A scalar argument violates its contract (sign, range, type)."""


class InvalidTable(InvalidValue):
    """A joint or count table violates its invariants."""


class ZeroTotal(InvalidTable):
    """A count table with zero observations cannot be normalized."""


class InvalidDistribution(InvalidValue):
    """A weight vector is not a probability distribution."""


class MissingCounts(SelinfError):
    """Statistical tests need per-treatment counts that are not present."""


class ParseError(SelinfError):
    """Base class for malformed experiment or model documents."""


class MissingTreatment(ParseError):
    """A required treatment block is absent from the document."""


class BadCell(ParseError):
    """A table cell is non-numeric, negative, or otherwise unusable."""


class SumNotOne(ParseError):
    """Probability cells do not sum to one (beyond any allowed tolerance)."""


class ConflictingData(ParseError):
    """Probabilities and counts were both given and disagree."""
