"""The frozen base of capstar's records.

`__init__` sets a record's fields once, through `vars(self)` (or
`object.__setattr__` under `__slots__`); assigning or deleting any
attribute after that raises AttributeError.  The repr shows `_fields`,
and a record equals one of its own class with equal `_fields` and
hashes as their tuple, unless its class defines its own `__eq__`
(unhashable) or takes back `object`'s (identity).
"""


class Record:
    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        # a tuple compares its items by identity first, so `self` equals itself
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())
