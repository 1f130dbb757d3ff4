"""Model equality, hashing and repr on refines chains of any depth."""

from __future__ import annotations

import sys

from ebhint.model import Machine, Model

# deeper than Python's recursion limit: no method may recurse per level
DEEP = sys.getrecursionlimit() + 200


def chain(depth: int, base: str = "m0") -> Model:
    """A refines chain of ``depth`` machines, ``base`` the most abstract."""
    model = Model(Machine(base))
    for level in range(1, depth):
        model = Model(Machine(f"m{level}", refines=model.machine.name), (), model)
    return model


def test_levels_walk_from_the_model_to_its_most_abstract_machine():
    assert [level.machine.name for level in chain(3).levels()] == ["m2", "m1", "m0"]


def test_deep_chains_compare_equal():
    assert chain(DEEP) == chain(DEEP)


def test_chains_that_differ_only_at_the_most_abstract_machine_are_unequal():
    assert chain(DEEP) != chain(DEEP, base="other")
    assert chain(3) != chain(3, base="other")
    assert chain(3) != chain(2) and chain(2) != chain(3)
    assert chain(2) != chain(2).machine


def test_deep_chains_hash_equal():
    assert hash(chain(DEEP)) == hash(chain(DEEP))


def test_deep_chain_repr():
    text = repr(chain(DEEP))
    top = Machine(f"m{DEEP - 1}", refines=f"m{DEEP - 2}")
    assert text.startswith(f"Model(machine={top!r}, contexts=(), abstract=Model(")
    assert text.endswith(f"Model(machine={Machine('m0')!r}, contexts=(), abstract=None)" + ")" * (DEEP - 1))


def test_shallow_repr_reads_as_nested_constructor_calls():
    m0, m1 = Machine("m0"), Machine("m1", refines="m0")
    assert repr(chain(2)) == f"Model(machine={m1!r}, contexts=(), abstract=Model(machine={m0!r}, contexts=(), abstract=None))"
