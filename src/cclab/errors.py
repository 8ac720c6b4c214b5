"""Shared exception types for cclab, and the one rule by which its
hand-written readers read a number."""


def parse_count(tok: str, signed: bool = False) -> int:
    """The integer tok writes in ASCII digits, after one '-' if
    ``signed``, else ValueError: no other sign, no space, underscore or
    other script's digit."""
    digits = tok[1:] if signed and tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{tok!r} is not an integer")
    return int(tok)


class CapacityError(Exception):
    """A requested object exceeds the desk-scale size guard."""


class StructureError(Exception):
    """A protocol tree is malformed (predicate outside its reachable set,
    bad speaker tag, or a node that is neither internal nor leaf)."""


class InvariantError(Exception):
    """An internal invariant that should be unreachable was violated.

    Raising this is itself a bug: tests treat reachability as a failure.
    """


class ParseError(Exception):
    """A file could not be parsed.  Carries 1-based line/column positions."""

    def __init__(self, message, line, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, col {col}"
        super().__init__(f"{where}: {message}")
