"""The package's two exception types, one per failing CLI exit code.

`LevelDivError` is bad data (exit 2): unparseable levels, filters that do
not fit, mismatched dimensions, empty inputs, bad cuts. `LevelIoError` is an
unreadable file or directory (exit 3); being an `OSError`, it exits like any
failed read or write. Bad arguments raise `ValueError` (exit 1).
"""


class LevelDivError(Exception):
    """Input data the package cannot use; the message says which check failed."""


class LevelIoError(OSError):
    """A level file or directory could not be read."""
