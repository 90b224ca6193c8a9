"""Value records: the one base of the package's classes that are equal by
value.

A record's class names its fields in ``_fields``, once: the shared
constructor takes their values positionally, in that order, and rejects a
wrong count.  A subclass writes its own ``__init__`` only for what that
cannot do, a default, a normalisation or an attribute outside
``_fields``.  Two records are equal when they are of the same class and
their fields are equal, a record hashes as the tuple of its fields, and
its repr lists them by name: what a frozen dataclass gives, without
importing ``dataclasses``, which loads ``inspect`` and once cost a command
most of its start-up.  Nothing stops a field being set again, and nothing
in the package does so.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    _fields: tuple = ()  # the names of the fields, in order

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
