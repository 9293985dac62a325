"""Exception hierarchy shared by the whole package."""

import sys


class NomreError(Exception):
    """Base class for all package errors."""


class ParseError(NomreError):
    """Lexical or syntactic error in expression or word text."""

    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = "%d:%d: %s" % (line, col, msg)
        super().__init__(msg)
        self.line = line
        self.col = col


class ValidationError(NomreError):
    """An automaton or input value violates its structural contract."""


class SchemaError(ValidationError):
    """Malformed automaton JSON."""


class ContextError(NomreError):
    """A context triple does not fit the expression."""


class ResourceLimitError(NomreError):
    """A configured search or forest bound, or Python's recursion limit, was exceeded."""


def too_deep():
    """The error for input nested past Python's recursion limit."""
    return ResourceLimitError("input nested too deeply for Python's recursion limit of %d"
                              % sys.getrecursionlimit())
