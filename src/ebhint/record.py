"""Immutable records, the shape of every formula node and model class.

`record` turns a class whose body lists annotated fields into an
immutable value class.  The class gets an ``__init__`` taking the fields
in order, with their defaults; ``==`` and ``hash`` over the compared
fields, as a tuple; a ``repr`` of the form ``Name(field=value, ...)``;
and assignment and deletion raise `AttributeError`.  A method the class
body defines itself is kept.  A subclass of a record is a record only
once decorated itself, and then its fields follow its base's.

A field whose default is `position(...)` says where the record came
from: a source location or a file path.  It is keyword-only, and ``==``,
``hash`` and ``repr`` leave it out, so a parsed tree equals the same
tree built by hand.

``__init__``, ``==`` and ``hash`` come from one generated source per
class, and ``repr`` is one function for all.  ``dataclasses`` makes the
same methods at several times the import cost, which every command
pays.
"""

from __future__ import annotations

from typing import NamedTuple

_MISSING = object()


class _Field(NamedTuple):
    default: object  # _MISSING when the field has none
    position: bool


def position(default: object = None) -> object:
    """The default of a field that holds a source location or path:
    keyword-only, and neither compared, hashed nor shown."""
    return _Field(default, True)


def _frozen_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    shown = (f"{name}={getattr(self, name)!r}" for name, f in self._fields.items() if not f.position)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def record(cls: type | None = None, /, *, slots: bool = False):
    """Make ``cls`` a record (see the module docstring); with ``slots``,
    its instances keep their fields in ``__slots__`` instead of a dict."""
    if cls is None:
        return lambda cls: _build(cls, slots)
    return _build(cls, slots)


def _build(cls: type, slots: bool) -> type:
    fields: dict[str, _Field] = dict(getattr(cls, "_fields", {}))
    own = cls.__dict__.get("__annotations__", {})
    for name in own:
        default = cls.__dict__.get(name, _MISSING)
        fields[name] = default if isinstance(default, _Field) else _Field(default, False)
        if fields[name].position and not slots:  # the class shows the default, not the marker
            setattr(cls, name, fields[name].default)
    if slots:
        body = {k: v for k, v in cls.__dict__.items() if k not in own and k not in ("__dict__", "__weakref__")}
        body["__slots__"] = tuple(own)
        body["__qualname__"] = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls._fields = fields

    compared = [name for name, f in fields.items() if not f.position]
    params = [name if fields[name].default is _MISSING else f"{name}=_d_{name}" for name in compared]
    keywords = [f"{name}=_d_{name}" for name, f in fields.items() if f.position]
    if keywords:
        params += ["*", *keywords]
    mine = "".join(f"self.{name}," for name in compared)
    theirs = "".join(f"other.{name}," for name in compared)
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *[f"    _set(self, {name!r}, {name})" for name in fields],
        "    pass",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ])
    methods = {"_set": object.__setattr__, **{f"_d_{name}": f.default for name, f in fields.items()}}
    exec(source, methods)
    methods["__repr__"] = _repr
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        if method not in cls.__dict__:
            setattr(cls, method, methods[method])
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def fields(record: object) -> tuple[str, ...]:
    """The field names of a record or record class, positions included,
    in the order the class lists them."""
    return tuple(record._fields)


def replace(record: object, /, **changes: object) -> object:
    """A copy of ``record`` with the named fields changed; every other
    field, positions included, keeps its value."""
    for name in record._fields:
        if name not in changes:
            changes[name] = getattr(record, name)
    return record.__class__(**changes)
