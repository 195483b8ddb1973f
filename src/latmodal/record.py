"""The base class of latmodal's value classes.

A subclass lists its fields as class annotations, with class-level
defaults, and gets what a frozen dataclass gives: construction by position
or keyword, equality with objects of the same class only, the hash of the
tuple of its fields, the ``Name(field=value, ...)`` repr, and
``AttributeError`` on assignment and deletion.  ``_fields`` names the
fields in order, and ``_replace`` returns a copy with some fields changed,
made through the class's ``__init__`` so that its checks run again.

The fields are read once, when the class is defined, and no method is
generated, so defining a class costs microseconds and imports nothing.  A
class whose objects are built in bulk, or that checks its arguments, writes
its own ``__init__``, which takes the fields in order and stores them with
``object.__setattr__``.  Not through ``__dict__``: from Python 3.11 on,
reading an object's ``__dict__`` turns its attribute storage into a plain
dict, and every later attribute read on it costs about twice as much.
"""

from __future__ import annotations

import operator
from itertools import repeat

_setattr = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        # the tuple of an object's field values (attrgetter gives one field bare)
        fields = cls._fields
        cls._values = staticmethod(
            operator.attrgetter(*fields)
            if len(fields) > 1
            else lambda obj: tuple([getattr(obj, f) for f in fields])
        )

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        list(map(_setattr, repeat(self), fields, args))  # one C call per field

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call with these arguments, the
        defaults filling the rest; TypeError as for a function's call."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] if f in values else cls._defaults[f] for f in fields]

    def _replace(self, **changes):
        values = [changes.pop(f, v) for f, v in zip(self._fields, self._values(self))]
        return type(self)(*values, **changes)  # a name left in changes is no field

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
