"""Exception hierarchy shared across the package."""


class CyclojonesError(Exception):
    """Base class for all package errors."""


class TagError(CyclojonesError):
    """Arithmetic attempted between polynomials with different variable tags."""


class InexactDivisionError(CyclojonesError):
    """Polynomial division left a remainder.

    Every division performed here is backed by an algebraic identity, so a
    remainder signals a broken identity upstream rather than bad input.
    """


class ParseError(CyclojonesError):
    """Malformed polynomial text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalInconsistencyError(CyclojonesError):
    """Two routes that must agree by a proved identity disagreed."""


class NumericError(CyclojonesError):
    """Numeric root finding failed to converge."""
