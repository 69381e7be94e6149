"""Frozen record classes whose methods are made without generated code.

``record`` is the part of ``dataclasses.dataclass(frozen=True)`` that the
package uses: fields from the class annotations in order, defaults,
``field(init=False, repr=False)``, ``__post_init__``, ``==`` and hash by
field values (unless ``eq=False``), no assignment after ``__init__``, and a
``Name(field=value, ...)`` repr (unless ``repr=False``); ``slots=True``
keeps the fields in slots.
A record class's methods are closures over its field names.
``dataclass`` instead generates the source of six methods per class and
compiles it at every import, which for the package's classes was most of
the import's own time and memory.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

_MISSING = object()
_put = object.__setattr__


class _Field:
    __slots__ = ("default", "init", "repr")

    def __init__(self, default: Any = _MISSING, init: bool = True, repr: bool = True) -> None:
        self.default, self.init, self.repr = default, init, repr


def field(*, init: bool = True, repr: bool = True) -> Any:
    """Options of one field without a default, as for ``dataclasses.field``."""
    return _Field(_MISSING, init, repr)


def _arguments(cls: str, names: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The value of every field in ``names``, from positional arguments,
    then keywords, then defaults."""
    if len(args) > len(names):
        raise TypeError(f"{cls}() takes {len(names)} arguments, got {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        value = kwargs.pop(name, defaults.get(name, _MISSING))
        if value is _MISSING:
            raise TypeError(f"{cls}() missing argument {name!r}")
        values.append(value)
    if kwargs:
        raise TypeError(f"{cls}() got unexpected arguments {sorted(kwargs)}")
    return values


def _initializer(cls: str, names: tuple[str, ...], defaults: dict, post: bool) -> Callable:
    """``__init__`` of a record class with the ``init`` fields ``names``.
    A call that passes every field positionally skips the checks, and a
    record of one field without ``__post_init__`` also skips the loop."""
    if len(names) == 1 and not post:
        (name,) = names

        def __init__(self, value=defaults.get(name, _MISSING), /, **kwargs) -> None:
            if value is _MISSING or kwargs:
                args = () if value is _MISSING else (value,)
                (value,) = _arguments(cls, names, defaults, args, kwargs)
            _put(self, name, value)

        return __init__
    count = len(names)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != count:
            args = _arguments(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _put(self, name, value)
        if post:
            self.__post_init__()

    return __init__


def _comparisons(names: tuple[str, ...]) -> tuple[Callable, Callable]:
    """``__eq__`` and ``__hash__`` by the tuple of the fields ``names``,
    which is also what a frozen dataclass hashes."""
    get = attrgetter(*names) if names else lambda r: ()
    one = len(names) == 1

    def __eq__(self, other: object) -> Any:
        if other.__class__ is self.__class__:
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((get(self),) if one else get(self))

    return __eq__, __hash__


def _representer(names: tuple[str, ...]) -> Callable:
    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({shown})"

    return __repr__


def _setattr(self, name: str, value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq: bool = True, slots: bool = False, repr: bool = True):
    """Make ``cls`` a frozen record class: ``@record``, or with
    ``eq=False`` to keep the equality and hash it inherits (identity,
    unless a base class defines its own), with ``repr=False`` to keep the
    ``repr`` it inherits, or with ``slots=True``
    to store the fields in slots instead of an instance dict (the class is
    then rebuilt, as a class's slots are fixed when it is made)."""
    if cls is None:
        return lambda c: record(c, eq=eq, slots=slots, repr=repr)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    fields: dict[str, _Field] = {}
    for name in names:
        # A default, or a ``field``, leaves the class: the instance holds the value.
        spec = cls.__dict__.get(name, _MISSING)
        fields[name] = spec if isinstance(spec, _Field) else _Field(spec)
        if spec is not _MISSING:
            delattr(cls, name)
    if slots:
        namespace = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
        namespace.update(__slots__=names, __qualname__=cls.__qualname__)
        cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    init = tuple(n for n in names if fields[n].init)
    defaults = {n: fields[n].default for n in init if fields[n].default is not _MISSING}
    cls.__init__ = _initializer(cls.__name__, init, defaults, hasattr(cls, "__post_init__"))
    if repr:
        cls.__repr__ = _representer(tuple(n for n in names if fields[n].repr))
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    if eq:
        cls.__eq__, cls.__hash__ = _comparisons(names)
    return cls
