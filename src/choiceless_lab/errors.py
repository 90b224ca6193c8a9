"""Shared exception types, and the one rule by which input files write
a decimal.

The CLI maps these onto distinct exit statuses, so library code should
raise the most specific one that applies.
"""

from __future__ import annotations

import sys


class ChoicelessLabError(Exception):
    """Base class for all package-specific failures."""


class ParseError(ChoicelessLabError):
    """Malformed program, structure or matrix text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class ValidationError(ChoicelessLabError):
    """Structurally well-formed input that violates a domain invariant."""


class GuardExceeded(ChoicelessLabError):
    """A named resource guard refused the requested problem size."""

    def __init__(self, guard: str, limit: int, requested: int):
        self.guard = guard
        self.limit = limit
        self.requested = requested
        super().__init__(f"guard {guard!r}: requested {requested}, limit {limit}")


# Python's default limit on the digits ``int`` converts from a string
DECIMAL_MAX_DIGITS = 4300


def _max_digits() -> int:
    """``DECIMAL_MAX_DIGITS``, or the interpreter's own limit on the digits
    ``int`` converts (``PYTHONINTMAXSTRDIGITS``) when that is lower; 0
    there means no limit, and an interpreter older than the limit has
    none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(limit, DECIMAL_MAX_DIGITS) if limit else DECIMAL_MAX_DIGITS


def read_decimal(text: str, what: str, line: int | None = None, column: int | None = None) -> int:
    """The value of a decimal read from an input file: ASCII digits only,
    at most ``DECIMAL_MAX_DIGITS`` of them, or fewer if the interpreter
    converts fewer; anything else is a ``ParseError`` naming the ``what``
    at its place.  ``int`` enforces a lower limit of the interpreter's."""
    if text.isascii() and text.isdigit() and len(text) <= DECIMAL_MAX_DIGITS:
        try:
            return int(text)
        except ValueError:  # past the interpreter's lower limit
            pass
    shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
    raise ParseError(
        f"{what} {shown} is not a decimal of at most {_max_digits()} ASCII digits",
        line,
        column,
    )
