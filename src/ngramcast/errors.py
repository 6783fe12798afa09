"""Exception types under one rule: a refused argument raises ValueError, and NgramcastError says
a valid call met a series the method cannot forecast. Its subclasses NoValidCandidate (the matcher
excluded every window) and SeriesTooShort (one shared message) are told apart by code. An outcome
every caller turns into a value is returned instead: pearson returns None for an undefined r.
"""


class NgramcastError(Exception):
    """A valid call on a series the method cannot forecast."""


class SeriesTooShort(NgramcastError):
    """Series shorter than the minimum required by the operation."""

    def __init__(self, length: int, minimum: int):
        self.minimum = minimum
        super().__init__(f"series length {length} is below the minimum required length {minimum}")


class NoValidCandidate(NgramcastError):
    """Every candidate window was excluded by the similarity criterion."""
