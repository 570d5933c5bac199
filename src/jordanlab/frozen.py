"""The one base the immutable value types share.

Each value type is a plain class with __slots__ and a hand-written __init__ (see
README, "Plain slotted classes").  Frozen derives the rest from __slots__: an
instance equals itself, and otherwise only an instance of the same class with equal
fields, in order, hashes the tuple of those fields and prints as Name(field=value,
...).  A class overrides one of these only for a reason its override states.  Frozen
also refuses assignment and deletion once an instance is built; __init__ sets each
field exactly once through set_field.
"""

from operator import attrgetter

set_field = object.__setattr__  # for __init__ only: bypasses Frozen.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # the field tuple, also for one slot, where attrgetter returns the bare value
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda g: (get(g),))

    def __eq__(self, other):
        if other is self:  # values are shared, so this decides many comparisons, fields unread
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        pairs = zip(self.__slots__, self._fields(self))
        return f"{self.__class__.__name__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
