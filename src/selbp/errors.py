"""Exception types shared across the package."""


class SelbpError(Exception):
    """Base class for all selbp errors."""


class DimensionMismatch(SelbpError):
    """A size, shape or fraction out of range or at odds with what an operation needs."""


class EmptySelection(SelbpError):
    """No atom had a positive correlation with the target; nothing to select."""


class TrainingDiverged(SelbpError):
    """A training epoch hit a non-finite value; carries the records so far."""

    def __init__(self, message, records):
        super().__init__(message)
        self.records = records

    def __reduce__(self):  # so a worker process's divergence pickles with its records
        return type(self), (str(self), self.records)


class ParseError(SelbpError):
    """A configuration file could not be parsed, or names a key outside the
    documented schema."""


class MalformedRow(SelbpError):
    """A CSV dataset cannot be read: a column missing from its header, a row
    with the wrong number of fields, a feature that is not a finite number, or
    a label that is not a non-negative integer."""
