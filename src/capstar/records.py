"""The frozen base of capstar's records.

A record declares its fields once, in `_fields`, and any defaults in
`_defaults`.  The base `__init__` takes them positionally in that order
or by name; a record that checks or derives on construction defines its
own `__init__`.  Either sets the fields once, through `vars(self)` (or
`object.__setattr__` under `__slots__`); assigning or deleting any
attribute after that raises AttributeError.  The repr shows `_fields`,
and a record equals one of its own class with equal `_fields` and
hashes as their tuple, unless its class defines its own `__eq__`
(unhashable) or takes back `object`'s (identity).  A record keeps what
it derives on first use in one dict, `_derived`, through `_kept_as`;
a copy or a pickle leaves that dict behind.
"""

from functools import cached_property
from operator import attrgetter


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for f, v in kwargs.items():
            if f not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {f!r}")
            if f in values:
                raise TypeError(f"{name}() got multiple values for argument {f!r}")
            values[f] = v
        for f in fields[len(args):]:
            if f not in values:
                if f not in self._defaults:
                    raise TypeError(f"{name}() missing required argument {f!r}")
                values[f] = self._defaults[f]
        vars(self).update(values)

    # the store of kept values, made on first read; once made, the
    # record's own `_derived` shadows this
    _derived = cached_property(lambda self: {})

    def _kept_as(self, key, build):
        """The value kept under `key`, built by `build()` and kept on a
        miss.  A kept value goes with its owner, stays out of equality and
        the repr, and must not refer back to its owner: a reference cycle
        would keep both alive after their last use, until the cyclic
        garbage collector ran."""
        kept = self._derived
        if key not in kept:
            kept[key] = build()
        return kept[key]

    def __getstate__(self):
        # what copy and pickle carry: the fields, without the kept values
        state = dict(vars(self))
        state.pop("_derived", None)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __init_subclass__(cls):
        # the tuple of compared fields, one C call per record
        get = attrgetter(*cls._fields) if cls._fields else (lambda self: ())
        cls._values = staticmethod(get if len(cls._fields) != 1 else lambda self: (get(self),))

    def __eq__(self, other):
        # a tuple compares its items by identity first, so `self` equals itself
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))
