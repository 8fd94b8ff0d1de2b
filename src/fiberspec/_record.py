"""Base class of the package's immutable records.

A record's own __init__ checks and converts its arguments, then hands one
value per field to Record.__init__, which stores them in the order of the
class's __slots__ (or of _fields, for a record that keeps a __dict__).
After that, assigning or deleting an attribute raises AttributeError.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        names = getattr(self, "_fields", None) or self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} has {len(names)} fields, "
                f"got {len(values)} values"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the fields through here: a slotted record
        # hands over (None, slots), one with a __dict__ the dict itself
        if isinstance(state, tuple):
            state = {**(state[0] or {}), **state[1]}
        for name, value in state.items():
            object.__setattr__(self, name, value)
