"""Exception types shared across the package."""


class SelbpError(Exception):
    """Base class for all selbp errors."""


class DimensionMismatch(SelbpError):
    """A size, shape or fraction out of range or at odds with what an operation needs."""


class EmptySelection(SelbpError):
    """No atom had a positive correlation with the target; nothing to select."""


class TrainingDiverged(SelbpError):
    """Training hit a non-finite loss. Carries the metrics recorded so far."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []


class ParseError(SelbpError):
    """A configuration file could not be parsed, or names a key outside the
    documented schema."""


class MalformedRow(SelbpError):
    """A CSV dataset cannot be read: a column missing from its header, a row
    with the wrong number of fields, a feature that is not a finite number, or
    a label that is not a non-negative integer."""
