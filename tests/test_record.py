"""The contract of every record class of the package: source positions
(``loc``, ``path`` and ``*_locs``) are keyword-only and left out of
``==``, ``hash`` and ``repr``, except that a `Diagnostic` compares all
four of its fields; records cannot be changed in place; ``repr`` reads
``Name(field=value, ...)``; and `replace` changes only the fields it
names."""

from __future__ import annotations

import inspect

import pytest

from ebhint import diagnostics, formula, model, pog, prover
from ebhint.diagnostics import Diagnostic
from ebhint.formula import Formula, Ident, Loc
from ebhint.model import Machine, Model
from ebhint.prover import ProveOptions
from ebhint.record import fields, replace

RECORDS = sorted(
    {
        value
        for module in (formula, model, prover, pog, diagnostics)
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
        and "_fields" in vars(value) and not issubclass(value, tuple)
    },
    key=lambda cls: cls.__qualname__,
)


def is_position(cls: type, name: str) -> bool:
    return cls is not Diagnostic and (name in ("loc", "path") or name.endswith("_locs"))


def value(cls: type, name: str, tag: int) -> object:
    """A value of field ``name`` that differs with ``tag``."""
    if name == "loc":
        return Loc(tag, 1)
    if name.endswith("_locs"):
        return (Loc(tag, 2),)
    if name == "abstract":  # a Model's equality walks its abstract models
        return None if tag == 1 else Model(Machine(f"m{tag}"))
    return f"{name}{tag}"


def make(cls: type, positions: int = 1) -> object:
    """A record whose positions carry ``positions`` and its other fields 1."""
    return cls(**{name: value(cls, name, positions if is_position(cls, name) else 1) for name in fields(cls)})


def compared(cls: type) -> list[str]:
    return [name for name in fields(cls) if not is_position(cls, name)]


def test_every_module_contributes_its_records():
    assert {Formula, Ident, Machine, Model, ProveOptions, Diagnostic, pog.BaConjunct} <= set(RECORDS)
    assert len(RECORDS) == len({cls.__name__ for cls in RECORDS})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positions_are_keyword_only(cls):
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == compared(cls) + [n for n in fields(cls) if is_position(cls, n)]
    for name, parameter in parameters.items():
        keyword_only = parameter.kind is inspect.Parameter.KEYWORD_ONLY
        assert keyword_only == is_position(cls, name), name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_that_differ_only_in_positions_are_equal(cls):
    one, other = make(cls), make(cls, positions=2)
    assert one == other and hash(one) == hash(other)
    for name in compared(cls):
        changed = replace(one, **{name: value(cls, name, 2)})
        assert changed != one, name


def test_a_diagnostic_compares_all_four_fields():
    one = Diagnostic("code", "message", Loc(1, 1), "a.ebh")
    assert one == Diagnostic("code", "message", Loc(1, 1), "a.ebh")
    assert hash(one) == hash(("code", "message", Loc(1, 1), "a.ebh"))
    assert one != replace(one, loc=Loc(1, 2))
    assert one != replace(one, path="b.ebh")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    if cls is Model:  # hashes its machine and contexts level by level
        return
    one = make(cls)
    assert hash(one) == hash(tuple(getattr(one, name) for name in compared(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_cannot_change(cls):
    one = make(cls)
    for name in fields(cls) + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(one, name, "x")
    for name in fields(cls):
        with pytest.raises(AttributeError):
            delattr(one, name)
    assert one == make(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_lists_the_compared_fields(cls):
    one = make(cls)
    shown = ", ".join(f"{name}={getattr(one, name)!r}" for name in compared(cls))
    assert repr(one) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_changes_only_the_named_fields(cls):
    one = make(cls)
    for name in fields(cls):
        changed = replace(one, **{name: value(cls, name, 2)})
        assert type(changed) is cls
        for other in fields(cls):
            expected = value(cls, other, 2 if other == name else 1)
            assert getattr(changed, other) == expected, (name, other)
    with pytest.raises(TypeError):
        replace(one, unknown=1)


def test_formula_nodes_keep_their_fields_in_slots():
    assert not hasattr(Ident("x"), "__dict__")
    assert Ident.__slots__ == ("name", "primed") and Formula.__slots__ == ("loc",)


def test_defaults_stay_readable_on_the_class():
    assert (ProveOptions.lasso, ProveOptions.all_hyps, ProveOptions.timeout_ms) == (False, False, 2000)
    assert Machine.path is None and Machine.variable_locs == ()
    assert Ident("x").primed is False and Ident("x").loc is None
