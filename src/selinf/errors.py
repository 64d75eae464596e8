"""The three errors of the package, one per boundary.

A record or library function raises ``InvalidValue`` for a value it
rejects; a parser raises ``ParseError`` for a document it rejects, and
turns an ``InvalidValue`` from the records it builds into one with the same
message. Either prints as one ``error:`` line from the command line.
"""


class SelinfError(Exception):
    """Base class for every error raised by this package."""


class InvalidValue(SelinfError, ValueError):
    """A value violates the contract of the record or function given it (type, range, sum, agreement)."""


class ParseError(SelinfError):
    """An experiment, model or report document is malformed."""
