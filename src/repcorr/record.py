"""Frozen value records without the dataclasses module.

`record` turns a class whose body annotates its fields (in order, with
optional class-level defaults) into an immutable value type with the same
behaviour as `dataclasses.dataclass(frozen=True)`:

- `__init__` takes the fields positionally or by keyword, fills defaults,
  raises TypeError on a missing, repeated or unknown argument, and then
  calls the class's `__post_init__`, if it has one;
- `__eq__` compares the compared fields of two instances of the same class
  as a tuple and returns NotImplemented for any other class;
- `__hash__` is hash() of that tuple, the dataclass's value;
- `__repr__` is `Name(field=value, ...)` over the shown fields;
- assigning or deleting an attribute raises AttributeError;
- `_fields` names the fields and `_replace(**changes)` returns a copy with
  some of them changed, as on a NamedTuple.

A method the class defines itself is kept. The methods are plain closures:
no source text is generated, so no `exec`, and importing this module loads
neither `dataclasses` nor `inspect`. There are no `__slots__`, so
`functools.cached_property` can still write to the instance `__dict__`.

    @record(norepr=("elements",), nocompare=("index",))
    class Group: ...
"""

from operator import attrgetter

# Stores a field past the frozen __setattr__. Unlike writing to
# self.__dict__, it keeps CPython's inline instance values, so attribute
# reads stay on the fast path.
_set = object.__setattr__


def record(cls=None, /, *, norepr=(), nocompare=()):
    """Make cls a frozen record; the names in norepr are left out of repr,
    those in nocompare out of eq and hash."""
    if cls is None:
        return lambda c: _make_record(c, norepr, nocompare)
    return _make_record(cls, norepr, nocompare)


def _make_record(cls, norepr, nocompare):
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    compared = tuple(n for n in names if n not in nocompare)
    shown = tuple(n for n in names if n not in norepr)
    if len(compared) == 1:
        get = attrgetter(compared[0])

        def key(obj):
            return (get(obj),)
    else:
        key = attrgetter(*compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join([f"{n}={getattr(self, n)!r}" for n in shown])
        return f"{self.__class__.__qualname__}({fields})"

    attrs = {"__init__": _init(cls, names, defaults), "__eq__": __eq__, "__hash__": __hash__,
             "__repr__": __repr__, "__setattr__": _frozen, "__delattr__": _frozen,
             "_fields": names, "_replace": _replace}
    for name, value in attrs.items():
        # a class that defines __eq__ alone gets __hash__ = None from Python
        if cls.__dict__.get(name) is None:
            setattr(cls, name, value)
    return cls


def _init(cls, names, defaults):
    """__init__ for the fields `names`: a call passing every field
    positionally stores the arguments as they come; any other call binds
    them as the signature (*names) with these defaults would."""
    n = len(names)
    post_init = getattr(cls, "__post_init__", None)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    return __init__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen "
                         f"{self.__class__.__qualname__}")


def _replace(self, **changes):
    """A copy of this record with the given fields changed."""
    return self.__class__(**{**{n: getattr(self, n) for n in self._fields}, **changes})
