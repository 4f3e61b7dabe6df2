"""Exception hierarchy shared by all leveldiv modules."""


class LevelDivError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(LevelDivError):
    """No usable input: empty level text, empty path list, empty distribution list."""


class RaggedRowsError(LevelDivError):
    """Level text rows are not all the same length."""


class InvalidCharacterError(LevelDivError):
    """A tile symbol is not a printable, non-newline character, or a file is not UTF-8."""


class LevelIoError(LevelDivError):
    """A level file could not be read."""

    def __init__(self, path, cause):
        super().__init__(f"cannot read level file {path}: {cause}")
        self.path = path
        self.cause = cause


class DuplicateNameError(LevelDivError):
    """Two levels in one set share a name."""


class FilterTooLargeError(LevelDivError):
    """The filter window does not fit inside the grid."""


class DimsMismatchError(LevelDivError):
    """Operands carry different filter dimensions."""


class EmptyDistributionError(LevelDivError):
    """A pattern distribution with no patterns where one is required."""


class SnippetTooWideError(LevelDivError):
    """Requested snippet width exceeds a training level's width."""


class NegativeDistanceError(LevelDivError):
    """A symmetrized divergence entry is significantly below zero."""


class InvalidCutError(LevelDivError):
    """Requested cluster count is outside 1..n."""
