"""Exception types. Every library error is an NgramcastError; a subclass exists only where
code or a documented contract tells it apart, and any other error raises the base class:
UndefinedCorrelation (the matcher skips the window, error_metrics reports no correlation),
NoValidCandidate (the matcher excluded every window), SeriesTooShort (one shared message).
"""


class NgramcastError(Exception):
    """Base class for all library errors."""


class UndefinedCorrelation(NgramcastError):
    """Pearson correlation is undefined: fewer than 2 points, or zero variance in an input."""


class SeriesTooShort(NgramcastError):
    """Series shorter than the minimum required by the operation."""

    def __init__(self, length: int, minimum: int):
        self.minimum = minimum
        super().__init__(f"series length {length} is below the minimum required length {minimum}")


class NoValidCandidate(NgramcastError):
    """Every candidate window was excluded by the similarity criterion."""
