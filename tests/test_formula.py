"""Formula tree basics: substitution, priming, evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebhint.formula import (
    And,
    Comparison,
    Ident,
    IntLiteral,
    Membership,
    NatSet,
    Quantifier,
    SetLiteral,
    Truth,
    Unevaluable,
    conjunction,
    disjunction,
    evaluate,
    free_identifiers,
    prime,
    substitute,
    walk,
)
from strategies import NAMES, exprs, predicates


def test_free_identifiers_distinguish_primes():
    f = Comparison("=", Ident("x", primed=True), Ident("x"))
    assert free_identifiers(f) == {"x'", "x"}


@given(predicates, st.sampled_from(NAMES), exprs)
def test_substitution_bounds_free_identifiers(f, x, e):
    result = substitute(f, {x: e})
    allowed = (free_identifiers(f) - {x}) | free_identifiers(e)
    assert free_identifiers(result) <= allowed
    if x not in free_identifiers(f):
        assert result == f


def test_substitution_avoids_capture():
    # exists a . a = b, with b := a + 1: the binder must be renamed
    f = Quantifier("exists", (Ident("a"),), Comparison("=", Ident("a"), Ident("b")))
    g = substitute(f, {"b": IntLiteral(1)})
    assert free_identifiers(g) == frozenset()
    h = substitute(f, {"b": Ident("a")})
    assert isinstance(h, Quantifier)
    assert h.binders[0].name != "a"
    assert free_identifiers(h) == {"a"}


def test_substitute_under_shadowing_binder_is_identity():
    f = Quantifier("exists", (Ident("a"),), Comparison("=", Ident("a"), IntLiteral(0)))
    assert substitute(f, {"a": IntLiteral(5)}) == f


def test_prime_only_listed_names():
    f = Comparison("=", Ident("x"), Ident("y"))
    g = prime(f, ["x"])
    assert free_identifiers(g) == {"x'", "y"}


def test_prime_is_flag_not_text():
    # a primed identifier stays a single node; no double priming results
    f = prime(Ident("x"), ["x"])
    assert f == Ident("x", primed=True)
    assert prime(f, ["x"]) == f  # x' has no free unprimed x


def test_conjunction_disjunction_degenerate():
    assert conjunction(()) == Truth()
    one = Comparison("=", Ident("a"), IntLiteral(1))
    assert conjunction((one,)) == one
    assert disjunction((one,)) == one


@pytest.mark.parametrize(
    "pred, val, expected",
    [
        (Comparison("<=", Ident("x"), IntLiteral(3)), {"x": 3}, True),
        (Comparison("<", Ident("x"), IntLiteral(3)), {"x": 3}, False),
        (Membership(Ident("x"), NatSet()), {"x": 0}, True),
        (Membership(Ident("x"), NatSet()), {"x": -1}, False),
        (
            Membership(Ident("x"), SetLiteral((IntLiteral(1), IntLiteral(2)))),
            {"x": 2},
            True,
        ),
        (
            And(Comparison("=", Ident("x"), IntLiteral(1)), Truth()),
            {"x": 1},
            True,
        ),
    ],
)
def test_evaluate_cases(pred, val, expected):
    assert evaluate(pred, val) is expected


def test_evaluate_unknown_identifier_raises():
    with pytest.raises(Unevaluable):
        evaluate(Ident("zz"), {})


def test_evaluate_named_set_raises():
    with pytest.raises(Unevaluable):
        evaluate(Membership(Ident("x"), Ident("S")), {"x": 1, "S": 0})


def test_evaluate_quantifier_raises():
    with pytest.raises(Unevaluable):
        evaluate(Quantifier("exists", (Ident("y"),), Comparison(">", Ident("y"), IntLiteral(0))), {})


def test_walk_preorder():
    f = And(Truth(), Comparison("=", Ident("a"), IntLiteral(1)))
    kinds = [type(n).__name__ for n in walk(f)]
    assert kinds == ["And", "Truth", "Comparison", "Ident", "IntLiteral"]


def test_structural_equality_ignores_locations():
    from ebhint.formula import Loc

    assert Ident("x", loc=Loc(1, 1)) == Ident("x", loc=Loc(9, 9))
    assert Ident("x", loc=Loc(1, 1)) == Ident("x")
