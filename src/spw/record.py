"""Plain record classes.

A record names its fields in `_fields` (usually also its `__slots__`) and
writes its own `__init__`, so importing spw generates no code.  The base
classes give what a dataclass would: `==` over the fields, the repr
`Name(field=value, ..)` and, for a frozen record, the hash of the fields.
"""


class Record:
    """Equal to a record of the same class whose `_fields` are equal; not
    hashable, as a mutable dataclass is not."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record that nothing changes after `__init__`, hashed by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())
