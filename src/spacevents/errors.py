"""Exception types shared across the package."""

from __future__ import annotations


class SpaceventsError(Exception):
    """Base class for every error this package raises on purpose."""


class InputError(SpaceventsError):
    """Bad input data or configuration supplied by the caller.

    Raised with the ``line`` (and ``col``) of the input where it was found,
    its message starts with ``line N: `` (or ``line N, column C: ``);
    ``.line`` and ``.col`` keep them, and are None where not known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            where = f"line {line}" if col is None else f"line {line}, column {col}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class ParseError(InputError):
    """Malformed input file."""


class StructureError(InputError):
    """A sentence's dependency edges do not form a tree."""


class SchemaError(InputError):
    """A structured record does not match the shape it is required to have."""


class RuleError(InputError):
    """Problem in a rule file: syntax, duplicate names, or tier violations."""
