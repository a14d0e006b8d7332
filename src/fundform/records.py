"""Immutable ``__slots__`` records for engine values that cannot be tuples.

A record that may equal a plain tuple is a ``typing.NamedTuple``.  One
that must not, or that keeps a private slot such as a memo or an index,
derives from ``Record``: its ``__init__`` fills the slots with
``object.__setattr__`` and takes its public fields, named in ``_fields``,
as positional arguments.  Those fields give its equality, hash and repr.
"""

from __future__ import annotations


class Record:
    """Equality, hashing and repr over the fields named in ``_fields``, as
    a frozen dataclass has them; no attribute is set after ``__init__``."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which takes the fields
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
