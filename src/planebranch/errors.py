"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it: ValidationError 1,
VerificationError (and numeric failures) and ContactUndecidableError 2,
PolyParseError 3.
"""

import sys
from contextlib import contextmanager


class PlanebranchError(Exception):
    exit_code = 1


class ValidationError(PlanebranchError, ValueError):
    """Input violates a documented precondition or invariant."""


class VerificationError(PlanebranchError):
    """Two independent computations of the same quantity disagree."""

    exit_code = 2


class NumericError(VerificationError):
    """The floating-point engine failed even at the highest precision tier."""


class ContactUndecidableError(PlanebranchError):
    """Series agree through the truncation window; a deeper expansion is needed."""

    exit_code = 2

    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"contact undecidable at current depth (>= {bound})")


class PolyParseError(PlanebranchError, ValueError):
    exit_code = 3

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


@contextmanager
def _digit_limit():
    """str() of an int past sys.get_int_max_str_digits() as ValidationError."""
    try:
        yield
    except ValueError as exc:  # the interpreter's wording in every version with the limit
        if isinstance(exc, PlanebranchError) or "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"cannot print a number of more than {limit} digits") from None
