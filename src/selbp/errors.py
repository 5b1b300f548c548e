"""Exception types shared across the package."""


class SelbpError(Exception):
    """Base class for all selbp errors."""


class DimensionMismatch(SelbpError):
    """Array shapes do not agree with what an operation requires."""


class EmptySelection(SelbpError):
    """No atom had a positive correlation with the target; nothing to select."""


class BadFraction(SelbpError):
    """A subset size or subsampling fraction is out of its valid range."""


class DegenerateWeights(SelbpError):
    """All sampling weights vanished; weighted sampling is undefined."""


class TrainingDiverged(SelbpError):
    """Training hit a non-finite loss. Carries the metrics recorded so far."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []


class ParseError(SelbpError):
    """A configuration file could not be parsed."""


class UnknownKey(SelbpError):
    """A configuration file contains a key outside the documented schema."""


class MalformedRow(SelbpError):
    """A CSV row has the wrong number of fields."""


class NonNumericFeature(SelbpError):
    """A CSV feature cell is not a number."""


class LabelOutOfRange(SelbpError):
    """A CSV label is not a non-negative integer."""
