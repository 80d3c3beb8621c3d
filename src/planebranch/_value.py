"""The base every immutable value class of the package derives from."""


class Value:
    """An immutable value, compared and hashed by its _key().

    A subclass declares its __slots__, fills them once in __init__ through
    _set, and returns from _key() what makes two of its values equal.
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
