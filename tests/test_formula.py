"""Formula tree basics: substitution, priming, evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from ebhint.formula import (
    COMPARISONS,
    Add,
    And,
    Comparison,
    Falsity,
    Ident,
    Iff,
    Implies,
    IntLiteral,
    IntSet,
    Membership,
    Minus,
    Mul,
    NatSet,
    Not,
    Or,
    Quantifier,
    SetLiteral,
    Sub,
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
from strategies import NAMES, constants, exprs, idents, predicates


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


def test_evaluate_takes_both_operands_of_a_connective():
    # false whatever S is, but `evaluate` takes both operands
    with pytest.raises(Unevaluable):
        evaluate(And(Falsity(), Membership(Ident("x"), Ident("S"))), {"x": 1})


def test_evaluate_quantifier_raises():
    with pytest.raises(Unevaluable):
        evaluate(Quantifier("exists", (Ident("y"),), Comparison(">", Ident("y"), IntLiteral(0))), {})


def _binary(classes, inner):
    return st.tuples(st.sampled_from(classes), inner, inner).map(lambda t: t[0](t[1], t[2]))


# every node kind `evaluate` takes, unlike `strategies.predicates`: all
# seven binary operators, unary minus and `true`, `false` and `INT`
_int_terms = st.recursive(
    st.one_of(idents, constants),
    lambda inner: st.one_of(inner.map(Minus), _binary([Add, Sub, Mul], inner)),
    max_leaves=4,
)
_containers = st.one_of(
    st.sampled_from([NatSet(), IntSet()]),
    st.lists(_int_terms, max_size=3).map(lambda es: SetLiteral(tuple(es))),
)
_all_kinds = st.recursive(
    st.one_of(
        st.sampled_from([Truth(), Falsity()]),
        st.tuples(st.sampled_from(sorted(COMPARISONS)), _int_terms, _int_terms).map(lambda t: Comparison(*t)),
        st.tuples(_int_terms, _containers).map(lambda t: Membership(*t)),
    ),
    lambda inner: st.one_of(inner.map(Not), _binary([And, Or, Implies, Iff], inner)),
    max_leaves=6,
)
_points = st.fixed_dictionaries({n: st.integers(-8, 8) for n in NAMES})


@given(_int_terms, _points)
def test_evaluate_expressions_agree_with_the_grid_oracle(e, point):
    env = {k: np.int64(v) for k, v in point.items()}
    assert evaluate(e, point) == int(oracle._expr(e, env))


@given(_binary([And, Or, Implies, Iff], _all_kinds), _points)  # a connective on top: each is reached often
def test_evaluate_predicates_agree_with_the_grid_oracle(f, point):
    env = {k: np.int64(v) for k, v in point.items()}
    assert evaluate(f, point) is bool(oracle._pred(f, env))


def test_walk_preorder():
    f = And(Truth(), Comparison("=", Ident("a"), IntLiteral(1)))
    kinds = [type(n).__name__ for n in walk(f)]
    assert kinds == ["And", "Truth", "Comparison", "Ident", "IntLiteral"]


def test_structural_equality_ignores_locations():
    from ebhint.formula import Loc

    assert Ident("x", loc=Loc(1, 1)) == Ident("x", loc=Loc(9, 9))
    assert Ident("x", loc=Loc(1, 1)) == Ident("x")
