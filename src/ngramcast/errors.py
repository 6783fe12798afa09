"""Exception types: NgramcastError, the base of every library error, and a subclass only where
code or a documented contract tells it apart: NoValidCandidate (the matcher excluded every
window) and SeriesTooShort (one shared message). An outcome that every caller turns into a
value is a return value, not an exception: pearson returns None for an undefined r.
"""


class NgramcastError(Exception):
    """Base class for all library errors."""


class SeriesTooShort(NgramcastError):
    """Series shorter than the minimum required by the operation."""

    def __init__(self, length: int, minimum: int):
        self.minimum = minimum
        super().__init__(f"series length {length} is below the minimum required length {minimum}")


class NoValidCandidate(NgramcastError):
    """Every candidate window was excluded by the similarity criterion."""
