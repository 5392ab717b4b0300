"""The immutable value type behind every object type and `PartSet`.

A subclass names its fields in `__slots__`, in constructor order, and its
`__init__` stores each one, normalized, with `set_field`.  Equality, hashing,
repr and pickling read the fields from `__slots__`: two objects are equal when
they have one type and equal fields, equal objects hash equal, the repr is
`Type(field=value, ...)`, and no field can be assigned or deleted.

This is what `@dataclass(frozen=True)` gave, without importing `dataclasses`:
that import loads `inspect`, and with it `ast`, `dis` and `tokenize`, which
cost each process that loads an object type several milliseconds.
"""
from operator import attrgetter

# stores a field past Frozen.__setattr__; only a subclass's __init__ calls it.
# One call per field, as dataclasses' own __init__ does: a loop over
# __slots__ in the base class makes every object twice as slow to build.
set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        # the fields' values, or the one field's value, for __eq__ and __hash__
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
