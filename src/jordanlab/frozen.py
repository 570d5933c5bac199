"""The one base the immutable value types share.

Each value type is a plain class with __slots__ and a hand-written __init__,
__eq__, __hash__ and __repr__ (see README, "Plain slotted classes").  Frozen
only refuses assignment and deletion once an instance is built; __init__ sets
each field exactly once through set_field.
"""

set_field = object.__setattr__  # for __init__ only: bypasses Frozen.__setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
