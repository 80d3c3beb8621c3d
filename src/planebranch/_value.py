"""The base every immutable value class of the package derives from, the
rules for integer and rational arguments, and the JSON form of a rational."""

from fractions import Fraction

from .errors import ValidationError


def _is_int(value) -> bool:
    """An int that is not a bool: True is not the integer 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value, what: str, allowed: str) -> Fraction:
    """value as an exact Fraction: an int, a Fraction or a string such as
    "3/2", never a float or a bool; ValidationError otherwise."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValidationError(f"{what} must be {allowed}, got {type(value).__name__} {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"{what} must be {allowed}, got {value!r}") from exc


def _num_to_json(v):
    """An int or Fraction as JSON: an int when integral, else "p/q"."""
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class Value:
    """An immutable value, compared and hashed by its _key().

    A subclass declares its __slots__, fills them once through _set, in a
    constructor, and returns from _key() what makes two of its values equal.
    Values of different types never compare equal, even with equal keys.
    copy, deepcopy and pickle restore the slots through _set as well.
    """

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        # the default state of a slotted object without __dict__ is
        # (None, {slot: value}); the default restore would go through
        # the refused __setattr__
        _, slots = state
        self._set(**slots)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
