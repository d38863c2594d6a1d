"""Immutable records: the one base class of every result and fixture type.

A subclass lists its fields as annotations, after those of its bases; a
class attribute of the same name is that field's default, shared by every
instance. Kept from frozen dataclasses: __init__ by position or keyword
(TypeError on too many, missing or unknown arguments, then __post_init__),
AttributeError on assignment and deletion, equality within one class, and
the repr Name(a=..., b=...). Records have no hash: no path keys a dict or
a set by one, and defining __eq__ alone makes hash() a TypeError. Unlike
frozen dataclasses it generates no code per class, which was most of the
package's import time.
"""


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = cls.__annotations__  # its own only, never its bases'
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):  # the all-positional call skips this
            given = {**self._defaults, **dict(zip(names, args)), **kwargs}
            unknown = kwargs.keys() - names[len(args):]  # or given by position too
            if len(args) > len(names) or unknown or len(given) < len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}; got "
                                f"{len(args)} positional and the keywords {sorted(kwargs)}")
            args = [given[n] for n in names]
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [self.__dict__[n] for n in fields] == [other.__dict__[n] for n in fields]

    def __repr__(self):
        body = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"
