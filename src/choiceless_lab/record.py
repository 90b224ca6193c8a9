"""Value records: the one base of the package's classes that are equal by
value.

A record's class names its fields in ``_fields`` and sets them in its own
``__init__``.  Two records are equal when they are of the same class and
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
