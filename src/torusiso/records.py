"""Immutable records: namedtuples that check their fields in ``__new__``.

``record`` gives a class what a frozen dataclass would, without the imports
of the dataclass module or a generated ``__init__``: equality only with
records of its own class, hashing as the field tuple, no assignment or
deletion of any attribute, and ``_replace`` and ``_make`` that build through
``__new__``, so a changed copy is checked like a new record. A subclass
declares ``__slots__ = ()`` unless it keeps derived values, set once in
``__new__`` with ``object.__setattr__`` or by a ``cached_property``.
"""

from collections import namedtuple


class _Record(tuple):
    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        return type(self)(**{**dict(zip(self._fields, self)), **changes})


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """Base class of the record ``name``; ``fields`` and ``defaults`` as in namedtuple."""
    return type(name, (_Record, namedtuple(name, fields, defaults=defaults)), {"__slots__": ()})
