"""Exception types, one per failing CLI exit code, and the `record` decorator.

`LevelDivError` is bad data (exit 2): unparseable levels, filters that do
not fit, mismatched dimensions, empty inputs, bad cuts. `LevelIoError` is an
unreadable file or directory (exit 3); being an `OSError`, it exits like any
failed read or write. Bad arguments raise `ValueError` (exit 1).
"""


class LevelDivError(Exception):
    """Input data the package cannot use; the message says which check failed."""


class LevelIoError(OSError):
    """A level file or directory could not be read."""


def record(fields: type) -> type:
    """Subclass NamedTuple `fields` so that every construction, `_make` and `_replace`
    included, runs its `_check` if any; they and pickling ignore __iter__ and __len__."""
    check = getattr(fields, "_check", lambda self: None)

    def __new__(cls, *args, **kwargs):
        self = fields.__new__(cls, *args, **kwargs)
        check(self)
        return self

    return type(fields.__name__, (fields,), {
        "__slots__": (), "__new__": __new__,
        "_asdict": lambda self: dict(zip(self._fields, self[:])),
        "_make": classmethod(lambda cls, values: cls(*values)),
        "_replace": lambda self, /, **changes: type(self)(**{**self._asdict(), **changes}),
        "__getnewargs__": lambda self: self[:], "__doc__": fields.__doc__,
        "__module__": fields.__module__, "__qualname__": fields.__qualname__,
    })
