"""Shared exception types."""

from __future__ import annotations


class NegirError(Exception):
    """The user's input or settings are wrong: ``negir`` prints the
    message and exits 1. Any other exception is a bug in negir."""


class ParseError(NegirError):
    """An input file could not be parsed; the message starts with the file
    and, where there is one, the line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        if path is not None:
            message = f"{path}: {message}" if line is None else f"{path}:{line}: {message}"
        super().__init__(message)


class DuplicateIdError(ParseError):
    """Two records in one input carry the same identifier."""

    def __init__(
        self, kind: str, identifier: str, path: str | None = None, line: int | None = None
    ):
        super().__init__(f"duplicate {kind}: {identifier!r}", path, line)
