"""Base class of the package's immutable records.

A record's own __init__ sets each field once with object.__setattr__;
after that, assigning or deleting an attribute raises AttributeError.
"""


class Record:
    __slots__ = ()

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
