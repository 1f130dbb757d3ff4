"""Well-formedness checking: scopes, labels, actions, witnesses, hints."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from conftest import FIXTURE_FILES, FIXTURES, two_levels_see_c
from ebhint.formula import Loc
from ebhint.model import Context, Machine, Model
from ebhint.parser import load_model, parse_source
from ebhint.record import replace
from ebhint.wellformed import check_new_events, wellformed


def check(source: str) -> list:
    return wellformed(Model(machine=parse_source(source)))


def codes(source: str) -> list[str]:
    return [d.code for d in check(source)]


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixtures_are_wellformed(name):
    model, diags = load_model(FIXTURES / name)
    assert diags == []
    assert wellformed(model) == []


def test_empty_machine_is_wellformed():
    assert check("machine empty\nevents\nend\n") == []


def test_wellformed_is_pure_and_idempotent():
    model, _ = load_model(FIXTURES / "case0.ebh")
    assert wellformed(model) == wellformed(model)


def test_unknown_identifier():
    assert "unknown-identifier" in codes(
        "machine m\nvariables x\ninvariants\n  i1: x = ghost\nevents\nend\n"
    )


def test_primed_identifier_in_invariant():
    assert "primed-identifier" in codes(
        "machine m\nvariables x\ninvariants\n  i1: x' = 0\nevents\nend\n"
    )


def test_nonlinear_multiplication():
    source = (
        "machine m\nvariables x y\ninvariants\n  i1: x * y = 0\nevents\nend\n"
    )
    assert "nonlinear-multiplication" in codes(source)
    linear = "machine m\nvariables x\ninvariants\n  i1: 2 * x = 0\nevents\nend\n"
    assert "nonlinear-multiplication" not in codes(linear)


def test_type_error_set_in_arithmetic():
    assert "type-error" in codes(
        "machine m\nvariables x\ninvariants\n  i1: x + {1} = 0\nevents\nend\n"
    )


def test_duplicate_labels_and_variables():
    assert "duplicate-label" in codes(
        "machine m\nvariables x\ninvariants\n  i1: x = 0\n  i1: x = 1\nevents\nend\n"
    )
    assert "duplicate-variable" in codes(
        "machine m\nvariables x x\nevents\nend\n"
    )


def test_duplicate_assignment_target():
    diags = check(
        "machine m\nvariables x\nevents\n  event e\n  then\n"
        "    a1: x := 1\n    a2: x := 2\n  end\nend\n"
    )
    assert any(
        d.code == "duplicate-assignment" and "duplicate assignment target 'x'" in d.message
        for d in diags
    )


def test_assignment_target_must_be_variable():
    assert "assignment-target" in codes(
        "machine m\nvariables x\nevents\n  event e\n  any p\n  where\n"
        "    g1: p in NAT\n  then\n    a1: p := 1\n  end\nend\n"
    )


def test_suchthat_primes_must_match_targets():
    bad_extra = (
        "machine m\nvariables x y\nevents\n  event e\n  then\n"
        "    a1: x :| x' = y' + 1\n  end\nend\n"
    )
    assert "suchthat-primes" in codes(bad_extra)
    missing = (
        "machine m\nvariables x\nevents\n  event e\n  then\n"
        "    a1: x :| 1 = 1\n  end\nend\n"
    )
    assert "suchthat-primes" in codes(missing)
    good = (
        "machine m\nvariables x y\nevents\n  event e\n  then\n"
        "    a1: x, y :| x' + y' = x + y\n  end\nend\n"
    )
    assert codes(good) == []


def test_initialisation_restrictions():
    assert "init-form" in codes(
        "machine m\nvariables x\nevents\n  initialisation\n  where\n"
        "    g1: x = 0\n  then\n    a1: x := 0\n  end\nend\n"
    )


def test_hint_target_must_be_own_invariant():
    theorem_target = (
        "machine m\nvariables x\ninvariants\n  i1: x in NAT\n"
        "theorems\n  t1: x + 1 in NAT\nevents\n  event e\n  then\n"
        "    a1: x := x + 1\n  hints\n    use i1 for t1\n  end\nend\n"
    )
    assert "hint-target" in codes(theorem_target)


def test_unresolved_hint_label():
    diags = check(
        "machine m\nvariables x\ninvariants\n  i1: x in NAT\nevents\n"
        "  event e\n  then\n    a1: x := x + 1\n"
        "  hints\n    use nosuch for i1\n  end\nend\n"
    )
    assert any(
        d.code == "unresolved-hint-label" and "unresolved hint label 'nosuch'" in d.message
        for d in diags
    )


def test_duplicate_hint_target():
    assert "duplicate-hint-target" in codes(
        "machine m\nvariables x\ninvariants\n  i1: x in NAT\n  i2: x <= 9\nevents\n"
        "  event e\n  then\n    a1: x := x + 1\n"
        "  hints\n    use i2 for i1\n    split case using x = 0 for i1\n  end\nend\n"
    )


def test_hint_primes_rejected():
    assert "hint-primes" in codes(
        "machine m\nvariables x\ninvariants\n  i1: x in NAT\nevents\n"
        "  event e\n  then\n    a1: x := x + 1\n"
        "  hints\n    split case using x' = 0 for i1\n  end\nend\n"
    )


def _refinement_model(concrete: str, abstract: str) -> Model:
    return Model(machine=parse_source(concrete), abstract=Model(machine=parse_source(abstract)))


ABSTRACT_XY = (
    "machine a\nvariables x y\ninvariants\n  ia1: x in INT\n  ia2: y in INT\n"
    "events\n  event step\n  then\n    a1: x := x + 1\n    a2: y := y + 1\n  end\nend\n"
)


def test_missing_witness_for_disappearing_variable():
    concrete = (
        "machine c refines a\nvariables y\ninvariants\n  ic1: y in INT\n"
        "events\n  event step refines step\n  then\n    a2: y := y + 1\n  end\nend\n"
    )
    diags = wellformed(_refinement_model(concrete, ABSTRACT_XY))
    assert any(
        d.code == "missing-witness" and "x'" in d.message for d in diags
    )


def test_witnessed_refinement_is_wellformed():
    concrete = (
        "machine c refines a\nvariables y\ninvariants\n  ic1: y in INT\n"
        "events\n  event step refines step\n  with x': x' = y + 1\n"
        "  then\n    a2: y := y + 1\n  end\nend\n"
    )
    assert wellformed(_refinement_model(concrete, ABSTRACT_XY)) == []


def test_unknown_abstract_event():
    concrete = (
        "machine c refines a\nvariables x y\nevents\n"
        "  event step refines ghost\n  then\n    a1: x := x\n  end\nend\n"
    )
    diags = wellformed(_refinement_model(concrete, ABSTRACT_XY))
    assert any(d.code == "unknown-event" for d in diags)


def test_merge_mismatch():
    abstract = (
        "machine a\nvariables x\ninvariants\n  ia1: x in INT\nevents\n"
        "  event e1\n  then\n    a1: x := 1\n  end\n"
        "  event e2\n  then\n    a1: x := 2\n  end\nend\n"
    )
    concrete = (
        "machine c refines a\nvariables x\nevents\n"
        "  event e refines e1, e2\n  then\n    a1: x := 1\n  end\nend\n"
    )
    diags = wellformed(_refinement_model(concrete, abstract))
    assert any(d.code == "merge-mismatch" for d in diags)


def test_check_new_events_rejects_abstract_assignment():
    abstract = (
        "machine a\nvariables x\ninvariants\n  ia1: x in INT\nevents\n"
        "  event step\n  then\n    a1: x := x + 1\n  end\nend\n"
    )
    concrete = (
        "machine c refines a\nvariables x y\ninvariants\n  ic1: y in INT\nevents\n"
        "  event step refines step\n  then\n    a1: x := x + 1\n  end\n"
        "  event fresh\n  then\n    a1: x := 0\n  end\nend\n"
    )
    model = Model(machine=parse_source(concrete), abstract=Model(machine=parse_source(abstract)))
    diags = check_new_events(model)
    assert any(d.code == "new-event-assigns-abstract" for d in diags)


def test_check_new_events_checks_every_level_in_order():
    bottom = Model(parse_source("machine c\nvariables x y\nevents\nend\n"))
    middle = Model(
        replace(
            parse_source(
                "machine a refines c\nvariables x y\nevents\n"
                "  event bump\n  then\n    a1: y := 1\n    a2: x := 2\n  end\nend\n"
            ),
            path="a.ebh",
        ),
        abstract=bottom,
    )
    top = Model(
        parse_source("machine b refines a\nvariables x y\nevents\n  event e\n  then\n    a1: x := 0\n  end\nend\n"),
        abstract=middle,
    )
    assert [d.render() for d in check_new_events(top)] == [
        "<model>:4:3: new-event-assigns-abstract: new event 'e' assigns abstract variable 'x'",
        "a.ebh:4:3: new-event-assigns-abstract: new event 'bump' assigns abstract variable 'y'",
        "a.ebh:4:3: new-event-assigns-abstract: new event 'bump' assigns abstract variable 'x'",
    ]


def test_a_context_both_levels_see_is_checked_once(tmp_path):
    top = two_levels_see_c(tmp_path, "context c\nconstants k\naxioms\n  ax1: k = 1\n  ax1: k = 2\nend\n")
    model, diags = load_model(top)
    assert diags == [] and model is not None
    assert [d.render() for d in wellformed(model)] == [
        f"{tmp_path.resolve() / 'c.ebh'}:5:3: duplicate-label: duplicate label 'ax1'"
    ]


def test_diagnostics_independent_of_declaration_order():
    first = (
        "machine m\nvariables x\ninvariants\n  i1: x = ghost\n  i2: y' = 0\nevents\nend\n"
    )
    second = (
        "machine m\nvariables x\ninvariants\n  i2: y' = 0\n  i1: x = ghost\nevents\nend\n"
    )
    multiset = lambda src: Counter((d.code, d.message) for d in check(src))  # noqa: E731
    assert multiset(first) == multiset(second)


def test_diagnostics_sorted_by_position():
    diags = check(
        "machine m\nvariables x\ninvariants\n  i1: x = ghost\n  i2: y' = 0\nevents\nend\n"
    )
    locs = [d.loc for d in diags if d.loc is not None]
    assert locs == sorted(locs)


# --- every diagnostic, rendered in full ----------------------------------------


def _render(source: str, *, sees: str | None = None, refines: str | None = None) -> list[str]:
    """The rendered diagnostics of a machine, with an optional context it
    sees and an optional machine it refines, or of a lone context."""
    component = parse_source(source)
    if isinstance(component, Context):
        model = Model(Machine(component.name), (component,))
    else:
        contexts = (parse_source(sees),) if sees else ()
        abstract = Model(parse_source(refines), contexts) if refines else None
        model = Model(component, contexts, abstract)
    return [d.render() for d in wellformed(model)]


def _machine(events: str, invariants: str = "  i1: x in NAT\n", variables: str = "x y") -> str:
    return f"machine m\nvariables {variables}\ninvariants\n{invariants}events\n{events}end\n"


def _event(body: str, head: str = "event e") -> str:
    return f"  {head}\n{body}  end\n"


def _refining(body: str, head: str = "event step refines step", variables: str = "y") -> str:
    return (
        f"machine c refines a\nvariables {variables}\ninvariants\n  ic1: y in INT\n"
        f"events\n  {head}\n{body}  end\nend\n"
    )


ABSTRACT_P = (
    "machine a\nvariables x y\nevents\n  event step\n  any p\n  where\n    g1: p in NAT\n"
    "  then\n    a1: x := p\n    a2: y := y + 1\n  end\nend\n"
)
ABSTRACT_E12 = (
    "machine a\nvariables x y\nevents\n  event e1\n  then\n    a1: x := 1\n  end\n"
    "  event e2\n  then\n    a1: x := 2\n  end\nend\n"
)
CONTEXT_K = "context c\nconstants k\naxioms\n  ax1: k in NAT\nend\n"
WITNESS_LINE = "    x': x' = y\n"
WITNESS_X = "  with\n" + WITNESS_LINE

# (case, machine or context source, keyword arguments of _render, the
# rendered diagnostics)
DIAGNOSTICS = [
    ("type-error", _machine("", "  i1: x + {1} = 0\n"), {}, [
        "<model>:4:11: type-error: set-typed expression is only allowed on the right of 'in' (arithmetic operand)",
    ]),
    ("type-error not operand", _machine("", "  i1: not (x + 1)\n"), {}, [
        "<model>:4:14: type-error: operand of 'not' must be boolean, found integer",
    ]),
    ("type-error minus operand", _machine("", "  i1: -(x = 1) = 0\n"), {}, [
        "<model>:4:11: type-error: arithmetic operand must be integer, found boolean",
    ]),
    ("type-error boolean literal operand", _machine("", "  i1: x + true = 0\n"), {}, [
        "<model>:4:11: type-error: arithmetic operand must be integer, found boolean",
    ]),
    ("type-error logical operand", _machine("", "  i1: x & x = 0\n"), {}, [
        "<model>:4:7: type-error: logical operand must be boolean, found integer",
    ]),
    ("nonlinear-multiplication", _machine("", "  i1: x * y = 0\n"), {}, [
        '<model>:4:9: nonlinear-multiplication: multiplication needs an integer literal operand',
    ]),
    ("duplicate-label", _machine("", "  i1: x = 0\n  i1: x = 1\n"), {}, [
        "<model>:5:3: duplicate-label: duplicate label 'i1'",
    ]),
    ("duplicate-label fact", _machine(_event("  where\n    i1: x = 0\n")), {}, [
        "<model>:8:5: duplicate-label: label 'i1' in event 'e' collides with a visible fact",
    ]),
    ("duplicate-label guard", _machine(_event("  where\n    g1: x = 0\n    g1: x = 1\n")), {}, [
        "<model>:9:5: duplicate-label: duplicate label 'g1' in event 'e'",
    ]),
    ("duplicate-label action", _machine(_event("  where\n    g1: x = 0\n  then\n    g1: x := 1\n")), {}, [
        "<model>:10:5: duplicate-label: duplicate label 'g1' in event 'e'",
    ]),
    ("duplicate-label witness", _refining("  where\n    p: y = 0\n  with\n    p: p = 0\n", variables="x y"),
     {"refines": ABSTRACT_P}, [
        "<model>:10:5: duplicate-label: witness subject 'p' collides with another label",
    ]),
    ("duplicate-label invariant", _machine("", "  ax1: x in NAT\n"), {"sees": CONTEXT_K}, [
        "<model>:4:3: duplicate-label: label 'ax1' collides with a visible fact",
    ]),
    ("duplicate-label abstract invariant", _machine("", "  j1: x in NAT\n"),
     {"refines": "machine a\nvariables x\ninvariants\n  j1: x in NAT\nevents\nend\n"}, [
        "<model>:4:3: duplicate-label: label 'j1' collides with a visible fact",
    ]),
    ("duplicate-variable", _machine("", variables="x x"), {}, [
        "<model>:2:13: duplicate-variable: duplicate variable 'x'",
    ]),
    ("duplicate-event", _machine(_event("") + _event("")), {}, ["<model>:8:3: duplicate-event: duplicate event 'e'"]),
    ("duplicate-identifier context", "context c\nsets S\nconstants S\nend\n", {}, [
        "<model>:3:11: duplicate-identifier: duplicate declaration of 'S'",
    ]),
    ("duplicate-identifier parameter", _machine(_event("  any x\n")), {}, [
        "<model>:7:7: duplicate-identifier: parameter 'x' shadows another identifier",
    ]),
    ("duplicate-identifier variable", _machine("", variables="x k"), {"sees": CONTEXT_K}, [
        "<model>:2:13: duplicate-identifier: variable 'k' shadows a context identifier",
    ]),
    ("duplicate-parameter", _machine(_event("  any p p\n")), {}, [
        "<model>:7:9: duplicate-parameter: duplicate parameter 'p'",
    ]),
    ("assignment-target", _machine(_event("  then\n    a1: z := 1\n")), {}, [
        "<model>:8:5: assignment-target: assignment target 'z' is not a variable",
    ]),
    ("duplicate-assignment", _machine(_event("  then\n    a1: x := 1\n    a2: x := 2\n")), {}, [
        "<model>:9:5: duplicate-assignment: duplicate assignment target 'x'",
    ]),
    ("suchthat-primes", _machine(_event("  then\n    a1: x :| 1 = 1\n")), {}, [
        "<model>:8:5: suchthat-primes: suchThat predicate never mentions x'",
    ]),
    ("init-form", _machine(_event("  any p\n  where\n    g1: p = 0\n", "initialisation")), {}, [
        '<model>:6:3: init-form: the initialisation event cannot have guards',
        '<model>:6:3: init-form: the initialisation event cannot have parameters',
    ]),
    ("duplicate-witness", _refining(WITNESS_X + "    x': x' = 0\n"), {"refines": ABSTRACT_XY}, [
        '<model>:9:5: duplicate-witness: duplicate witness for "x\'"',
    ]),
    ("missing-witness", _refining(""), {"refines": ABSTRACT_XY}, [
        "<model>:6:3: missing-witness: no witness for disappearing abstract variable x'",
    ]),
    ("missing-witness parameter", _refining("", variables="x y"), {"refines": ABSTRACT_P}, [
        "<model>:6:3: missing-witness: no witness for abstract parameter 'p'",
    ]),
    ("useless-witness refines nothing", _machine(_event(WITNESS_X)), {}, [
        '<model>:8:5: useless-witness: witness "x\'" on an event that refines nothing',
    ]),
    ("useless-witness not disappearing", _refining(WITNESS_X + "    y': y' = 0\n"), {"refines": ABSTRACT_XY}, [
        '<model>:9:5: useless-witness: witness subject "y\'" is not a primed disappearing abstract variable',
    ]),
    ("useless-witness not a parameter", _refining(WITNESS_X + "    q: q = 0\n"), {"refines": ABSTRACT_XY}, [
        "<model>:9:5: useless-witness: witness subject 'q' is not an abstract parameter",
    ]),
    ("useless-witness concrete", _refining("  any p\n  with\n    p: p = 0\n", variables="x y"), {"refines": ABSTRACT_P}, [
        "<model>:9:5: useless-witness: witness subject 'p' names a concrete identifier",
    ]),
    ("useless-witness unmentioned", _refining("  with\n    x': y = 0\n"), {"refines": ABSTRACT_XY}, [
        '<model>:8:5: useless-witness: witness predicate never mentions its subject "x\'"',
    ]),
    ("unknown-event", _refining(WITNESS_X, "event step refines ghost"), {"refines": ABSTRACT_XY}, [
        "<model>:6:3: unknown-event: no abstract event named 'ghost'",
    ]),
    ("unknown-event twice", _refining(WITNESS_X, "event step refines step, step"), {"refines": ABSTRACT_XY}, [
        "<model>:6:3: duplicate-event: abstract event 'step' listed twice",
    ]),
    ("unknown-event no abstract", _refining(""), {}, [
        "<model>:6:3: unknown-event: event 'step' refines 'step' but the machine refines nothing",
    ]),
    ("merge-mismatch", _refining("", "event e refines e1, e2", "x y"), {"refines": ABSTRACT_E12}, [
        "<model>:6:3: merge-mismatch: merged abstract events 'e1' and 'e2' must have identical parameter and action lists",
    ]),
    ("duplicate-hint-target", _machine(_event("  hints\n    use i1 for i1\n    use i1 for i1\n")), {}, [
        "<model>:9:5: duplicate-hint-target: more than one hint for invariant 'i1' on event 'e'",
    ]),
    ("hint-target", "machine m\nvariables x\ntheorems\n  t1: x in NAT\nevents\n" + _event("  hints\n    use t1 for t1\n") + "end\n", {}, [
        "<model>:8:5: hint-target: hint target 't1' must name an invariant of this machine, not a theorem or axiom",
    ]),
    ("unresolved-hint-label", _machine(_event("  hints\n    use nosuch for i1\n")), {}, [
        "<model>:8:5: unresolved-hint-label: unresolved hint label 'nosuch'",
    ]),
    ("hint-target unknown", _machine(_event("  hints\n    use i1 for nosuch\n")), {}, [
        "<model>:8:5: hint-target: hint target 'nosuch' names no invariant of this machine",
    ]),
    # a primed and an unknown identifier in each kind of scope
    ("primed-identifier invariant", _machine("", "  i1: x' = 0\n"), {}, [
        '<model>:4:7: primed-identifier: primed identifier "x\'" is not allowed here',
    ]),
    ("unknown-identifier invariant", _machine("", "  i1: x = ghost\n"), {}, [
        "<model>:4:11: unknown-identifier: unknown identifier 'ghost'",
    ]),
    ("primed-identifier guard", _machine(_event("  where\n    g1: x' = 0\n")), {}, [
        '<model>:8:9: primed-identifier: primed identifier "x\'" is not allowed here',
    ]),
    ("unknown-identifier guard", _machine(_event("  where\n    g1: ghost = 0\n")), {}, [
        "<model>:8:9: unknown-identifier: unknown identifier 'ghost'",
    ]),
    ("primed-identifier action", _machine(_event("  then\n    a1: x := x'\n")), {}, [
        '<model>:8:14: primed-identifier: primed identifier "x\'" is not allowed here',
    ]),
    ("unknown-identifier action", _machine(_event("  then\n    a1: x := ghost\n")), {}, [
        "<model>:8:14: unknown-identifier: unknown identifier 'ghost'",
    ]),
    ("primed-identifier suchThat", _machine(_event("  then\n    a1: x :| x' = y'\n")), {}, [
        "<model>:8:5: suchthat-primes: primed identifiers y' are not primed targets of this action",
        '<model>:8:19: primed-identifier: primed identifier "y\'" is not allowed here',
    ]),
    ("unknown-identifier suchThat", _machine(_event("  then\n    a1: x :| x' = ghost\n")), {}, [
        "<model>:8:19: unknown-identifier: unknown identifier 'ghost'",
    ]),
    ("primed-identifier witness", _refining("  with\n    x': x' = q'\n"), {"refines": ABSTRACT_XY}, [
        '<model>:8:14: primed-identifier: primed identifier "q\'" is not allowed here',
    ]),
    ("unknown-identifier witness", _refining("  with\n    x': x' = ghost\n"), {"refines": ABSTRACT_XY}, [
        "<model>:8:14: unknown-identifier: unknown identifier 'ghost'",
    ]),
    ("primed-identifier case hint", _machine(_event("  hints\n    split case using x' = 0 for i1\n")), {}, [
        "<model>:8:5: hint-primes: case predicate must not mention post-state identifiers (x')",
        '<model>:8:22: primed-identifier: primed identifier "x\'" is not allowed here',
    ]),
    ("unknown-identifier case hint", _machine(_event("  hints\n    split case using ghost = 0 for i1\n")), {}, [
        "<model>:8:22: unknown-identifier: unknown identifier 'ghost'",
    ]),
    ("primed-identifier quantifier", _machine("", "  i1: forall q' . q' = r'\n"), {}, [
        '<model>:4:24: primed-identifier: primed identifier "r\'" is not allowed here',
    ]),
    ("unknown-identifier quantifier", _machine("", "  i1: forall q . q = r\n"), {}, [
        "<model>:4:22: unknown-identifier: unknown identifier 'r'",
    ]),
]


@pytest.mark.parametrize("case, source, kwargs, rendered", DIAGNOSTICS, ids=[row[0] for row in DIAGNOSTICS])
def test_diagnostic_rendered(case, source, kwargs, rendered):
    assert _render(source, **kwargs) == rendered


def test_duplicate_names_of_a_built_model_point_at_its_header():
    """A model built in code has no positions for its names."""
    machine = Machine("m", variables=("x", "x"), loc=Loc(1, 1))
    assert [d.render() for d in wellformed(Model(machine))] == [
        "<model>:1:1: duplicate-variable: duplicate variable 'x'"
    ]
    # replace() keeps the parsed positions only where they still fit
    parsed = parse_source("machine m\nvariables x y\nend\n")
    assert [d.render() for d in wellformed(Model(replace(parsed, variables=("x", "y", "y"))))] == [
        "<model>:1:1: duplicate-variable: duplicate variable 'y'"
    ]


def test_primed_binder_and_suchthat_target_are_in_scope():
    assert _render(_machine(_event("  then\n    a1: x :| x' = y\n"), "  i1: forall q' . q' = x\n")) == []


def _reported_codes(path: Path) -> set[str]:
    """The code literal of every ``report`` call in a module."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "report"
        and isinstance(node.args[0], ast.Constant)
    }


def test_every_wellformed_code_has_a_rendered_case():
    pinned = {d.split(": ")[1] for *_, rendered in DIAGNOSTICS for d in rendered}
    reported = _reported_codes(Path(__file__).resolve().parent.parent / "src" / "ebhint" / "wellformed.py")
    assert reported and reported <= pinned, sorted(reported - pinned)
