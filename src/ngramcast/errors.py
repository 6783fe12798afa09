"""Exception hierarchy shared by all ngramcast modules."""


class NgramcastError(Exception):
    """Base class for all library errors."""


class InvalidLevels(NgramcastError):
    """Quantization level count is below 1."""


class DegenerateRange(NgramcastError):
    """The quantization grid is undefined: the series is constant or its range overflows."""


class InsufficientPoints(NgramcastError):
    """Too few points for a regression or correlation."""


class UndefinedCorrelation(NgramcastError):
    """Pearson correlation is undefined (zero variance in an input)."""


class SeriesTooShort(NgramcastError):
    """Series shorter than the minimum required by the operation."""

    def __init__(self, length: int, minimum: int):
        self.length = length
        self.minimum = minimum
        super().__init__(
            f"series length {length} is below the minimum required length {minimum}"
        )


class NoValidCandidate(NgramcastError):
    """Every candidate window was excluded by the similarity criterion."""


class WindowTooSmall(NgramcastError):
    """Derived window length N is below 2."""


class ParseError(NgramcastError):
    """A CSV row failed to parse."""

    def __init__(self, row: int, text: str):
        self.row = row
        self.text = text
        super().__init__(f"row {row}: cannot parse {text!r}")


class EmptyInput(NgramcastError):
    """The input file contains no data rows."""
