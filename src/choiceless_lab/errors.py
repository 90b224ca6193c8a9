"""Shared exception types.

The CLI maps these onto distinct exit statuses, so library code should
raise the most specific one that applies.
"""

from __future__ import annotations


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
