"""SMT-LIB 2 export."""

from __future__ import annotations

import pytest

from conftest import FIXTURES
from ebhint.formula import Ident, Membership, SetLiteral, Truth
from ebhint.model import Hypothesis, ProofObligation, Sequent
from ebhint.parser import load_model, parse_predicate
from ebhint.pog import generate
from ebhint.smtlib import export_smt


def po_of(name="set/hypSel0_1/INV", fixture="hypSel0.ebh"):
    model, _ = load_model(FIXTURES / fixture)
    return generate(model).get(name)


def mk_po(hyp_texts, goal, selected=True):
    hyps = tuple(
        Hypothesis(f"h{i + 1}", parse_predicate(t), selected=selected)
        for i, t in enumerate(hyp_texts)
    )
    goal_pred = parse_predicate(goal) if isinstance(goal, str) else goal
    return ProofObligation("t/PO", "INV", Sequent(hyps, goal_pred))


def asserts_of(script: str) -> list[str]:
    return [line for line in script.splitlines() if line.startswith("(assert")]


def test_export_counts_and_negated_goal():
    script = export_smt(po_of())
    lines = asserts_of(script)
    # three hypothesis assertions plus the negated goal
    assert len(lines) == 4
    assert lines[-1] == "(assert (not (<= 0 (+ y 1))))"
    assert script.splitlines()[0] == "; set/hypSel0_1/INV"
    assert "(set-logic QF_LIA)" in script
    assert "(declare-const x Int)" in script and "(declare-const y Int)" in script
    assert script.rstrip().endswith("(check-sat)")


def test_export_respect_selection_drops_unselected():
    drop = export_smt(po_of(), respect_selection=True)
    keep = export_smt(po_of())
    assert len(asserts_of(keep)) - len(asserts_of(drop)) == 1
    assert "; hypSel0_2" not in drop


def test_export_labels_every_assertion():
    script = export_smt(po_of())
    body = script.splitlines()
    for i, line in enumerate(body):
        if line.startswith("(assert") and i > 0:
            assert body[i - 1].startswith("; ")


@pytest.mark.parametrize("goal, term", [
    ("x = 0 <=> y = 0", "(= (= x 0) (= y 0))"),
    ("x = 0 & y = 0", "(and (= x 0) (= y 0))"),
    ("x = 0 => y = 0", "(=> (= x 0) (= y 0))"),
    ("x = 0 or y = 0", "(or (= x 0) (= y 0))"),
    ("x + y = 0", "(= (+ x y) 0)"),
    ("x - y = 0", "(= (- x y) 0)"),
    ("2 * x = 0", "(= (* 2 x) 0)"),
])
def test_export_spells_each_binary_operator(goal, term):
    assert asserts_of(export_smt(mk_po([], goal))) == [f"(assert (not {term}))"]


def test_export_trivial_goal():
    script = export_smt(mk_po(["false or x = 1"], Truth()))
    assert "(assert (not true))" in script
    assert "(assert (or false (= x 1)))" in script


def test_export_negative_literal_rendering():
    script = export_smt(mk_po(["-x < 1"], "x <= -5"))
    assert "(assert (< (- x) 1))" in script
    assert "(assert (not (<= x (- 5))))" in script


def test_export_disequality_and_set_literal():
    script = export_smt(mk_po(["x /= 3"], "x in {1, 2}"))
    assert "(assert (not (= x 3)))" in script
    assert "(assert (not (or (= x 1) (= x 2))))" in script


def test_export_quantifier_switches_logic():
    script = export_smt(mk_po([], "exists q . q >= x"))
    assert "(set-logic LIA)" in script
    assert "(exists ((q Int))" in script


def test_export_named_set_uses_uninterpreted_predicate():
    script = export_smt(mk_po(["x in S"], "x in S"))
    assert "(set-logic QF_UFLIA)" in script
    assert "(declare-fun S (Int) Bool)" in script
    assert "(assert (S x))" in script
    assert "(assert (not (S x)))" in script


def test_export_primed_identifiers_are_quoted():
    model, _ = load_model(FIXTURES / "hypSel0.ebh")
    po = generate(model).get("set/hypSel0_2/INV")
    script = export_smt(po)
    # x' normalizes away (x := y + 1 is deterministic) but the goal
    # still mentions the primed post-state of the unnormalized y...
    # so just check quoting is used whenever a prime survives
    for line in script.splitlines():
        if "'" in line:
            assert "|" in line


def test_export_int_membership_is_true():
    script = export_smt(mk_po([], "x in INT"))
    assert "(assert (not true))" in script


def test_export_empty_set_literal_membership_is_false():
    script = export_smt(mk_po([], Membership(Ident("x"), SetLiteral(()))))
    assert "(assert (not false))" in script
