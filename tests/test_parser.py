"""Lexing, parsing, file loading, and print/parse round trips."""

from __future__ import annotations

import pytest
from hypothesis import given

from conftest import CHAIN_PROBLEMS, FIXTURE_FILES, FIXTURES, two_levels_see_c
from ebhint.formula import (
    Add,
    And,
    Comparison,
    Ident,
    Iff,
    Implies,
    IntLiteral,
    Loc,
    Membership,
    Minus,
    Mul,
    NatSet,
    Not,
    Or,
    Quantifier,
    Sub,
    substitute,
)
from ebhint.model import Machine
from ebhint.parser import MAX_DEPTH, ParseError, lex, load_model, parse_predicate, parse_source
from ebhint.printer import pretty_print, print_formula
from strategies import predicates


# --- predicates --------------------------------------------------------------


def test_precedence_ladder():
    f = parse_predicate("not a = 1 & b = 2 or c = 3 => d = 4 <=> e = 5")
    # <=> binds loosest, then =>, or, &, not
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.left, And)
    assert isinstance(f.left.left.left.left, Not)


def test_implication_right_associative():
    f = parse_predicate("a = 1 => b = 2 => c = 3")
    assert isinstance(f, Implies) and isinstance(f.right, Implies)
    g = parse_predicate("a = 1 <=> b = 2 <=> c = 3")
    assert isinstance(g, Iff) and isinstance(g.right, Iff)


def test_arithmetic_precedence_and_grouping():
    a, c, d, f = (Ident(n) for n in "acdf")
    two, three = IntLiteral(2), IntLiteral(3)
    assert parse_predicate("-a * 2 + c - d * 3 - f") == Sub(Sub(Add(Mul(Minus(a), two), c), Mul(d, three)), f)
    assert parse_predicate("a - (b - c)") == Sub(a, Sub(Ident("b"), c))


def test_comparisons_non_associative():
    with pytest.raises(ParseError, match="non-associative"):
        parse_predicate("1 < 2 < 3")


def test_unicode_aliases_match_ascii():
    uni = parse_predicate("x ≤ 1 ∧ ¬ (y ∈ ℕ) ∨ z ≥ 0 ⇒ x ≠ y ∧ x ∈ ℤ")
    ascii_ = parse_predicate("x <= 1 & not (y in NAT) or z >= 0 => x /= y & x in INT")
    assert uni == ascii_


def test_assignment_symbols_lex_as_one_token():
    tokens = lex("x :| x' > x")
    assert [(t.kind, t.text, t.loc.column) for t in tokens] == [
        ("ident", "x", 1), (":|", ":|", 3), ("pident", "x", 6), (">", ">", 9), ("ident", "x", 11), ("eof", "", 12),
    ]
    # the unicode alias of '::' is two characters wide
    assert [(t.kind, t.loc.column) for t in lex("x :∈ S")] == [("ident", 1), ("::", 3), ("ident", 6), ("eof", 7)]


def test_quantifier_forms():
    f = parse_predicate("∃ p · p = q")
    g = parse_predicate("exists p . p = q")
    assert f == g
    assert isinstance(f, Quantifier) and f.kind == "exists"
    multi = parse_predicate("forall a b . a + b >= a")
    assert isinstance(multi, Quantifier) and len(multi.binders) == 2


def test_membership_forms():
    f = parse_predicate("x in {1, 2}")
    assert isinstance(f, Membership)
    assert isinstance(f.container.elements[0], IntLiteral)
    assert parse_predicate("x in NAT") == Membership(
        parse_predicate("x"), NatSet()
    )


def test_comments_and_ampersand():
    f = parse_predicate("x = 1 // trailing comment\n & y = 2")
    assert isinstance(f, And)


def test_double_prime_rejected():
    with pytest.raises(ParseError):
        parse_predicate("x'' = 1")


def test_locations_are_one_based():
    f = parse_predicate("x = 1")
    assert f.loc is not None
    assert f.left.loc == Loc(1, 1)
    assert f.right.loc == Loc(1, 5)


def test_error_location_points_at_offender():
    with pytest.raises(ParseError) as exc:
        parse_predicate("x =")
    assert exc.value.diagnostic.loc == Loc(1, 4)


def test_integer_literals_are_decimal_digits():
    # '²' is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError, match="unexpected character '²'") as exc:
        parse_predicate("x = ²")
    assert exc.value.diagnostic.loc == Loc(1, 5)
    assert parse_predicate("x² = 1") == Comparison("=", Ident("x²"), IntLiteral(1))


def test_overlong_integer_literal_is_a_syntax_error():
    digits = "7" * 5000
    try:
        value = int(digits)
    except ValueError:  # Python's limit on digits converted to int
        with pytest.raises(ParseError, match="integer literal of 5000 digits is too long") as exc:
            parse_predicate(f"x = {digits}")
        assert exc.value.diagnostic.code == "syntax" and exc.value.diagnostic.loc == Loc(1, 5)
    else:
        assert parse_predicate(f"x = {digits}").right == IntLiteral(value)


def test_expect_messages_quote_a_kind_but_not_a_description():
    with pytest.raises(ParseError, match=r"^<predicate>:1:7: syntax: expected end of input, found '\)'$"):
        parse_predicate("x = 1 )")
    with pytest.raises(ParseError, match=r"^<string>:3:6: syntax: expected ':' after label, found 'x'$"):
        parse_source("machine m\ninvariants\n  i1 x = 0\nend\n")
    with pytest.raises(ParseError, match=r"^<string>:2:1: syntax: expected 'end', found 'end of file'$"):
        parse_source("context c\n")


def test_list_and_target_messages():
    with pytest.raises(ParseError, match=r"^<string>:3:1: syntax: expected variable after ','$"):
        parse_source("machine m\nvariables x,\nevents\nend\n")
    events = "machine m\nvariables x y\nevents\n  event e\n  then\n    a1: x, y {} 1\n  end\nend\n"
    with pytest.raises(ParseError, match=r"^<string>:6:14: syntax: ':=' takes exactly one target$"):
        parse_source(events.format(":="))
    with pytest.raises(ParseError, match=r"^<string>:6:14: syntax: '::' takes exactly one target$"):
        parse_source(events.format("::"))
    with pytest.raises(ParseError, match=r"^<string>:6:11: syntax: expected ':=', '::' or ':\|'$"):
        parse_source("machine m\nvariables x\nevents\n  event e\n  then\n    a1: x 1\n  end\nend\n")


def test_initialisation_is_a_reserved_event_name():
    with pytest.raises(ParseError) as exc:
        parse_source("machine m\nevents\n  event INITIALISATION\n  end\nend\n")
    assert exc.value.diagnostic.render() == (
        "<string>:3:9: reserved-name: 'INITIALISATION' is reserved for the initialisation event"
    )
    with pytest.raises(ParseError, match="duplicate initialisation event"):
        parse_source("machine m\nevents\n  initialisation\n  end\n  initialisation\n  end\nend\n")


@pytest.mark.parametrize(
    "build",
    [
        lambda n: "(" * n + "x" + ")" * n,
        lambda n: "not " * n + "x",
        lambda n: "x = " + "- " * n + "y",
        lambda n: " => ".join(["x"] * (n + 1)),
    ],
)
def test_parser_nesting_limit(build):
    # each form opens one parser level per repetition
    parse_predicate(build(MAX_DEPTH - 2))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_predicate(build(MAX_DEPTH + 1))


def test_tree_depth_limit_points_into_the_formula():
    # a left-associated chain of n terms is n levels deep
    parse_predicate(" + ".join(["x"] * MAX_DEPTH))
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as exc:
        parse_predicate(" & ".join(["x"] * (MAX_DEPTH + 1)))
    # the first node past the limit, counted from the root: the first term
    assert exc.value.diagnostic.loc == Loc(1, 1)


def test_parenthesis_limit_points_at_the_opening_parenthesis():
    with pytest.raises(ParseError) as exc:
        parse_predicate("(" * 1500 + "x" + ")" * 1500)
    assert exc.value.diagnostic.loc == Loc(1, MAX_DEPTH + 1)


@given(predicates)
def test_print_parse_round_trip(f):
    assert parse_predicate(print_formula(f)) == f


@pytest.mark.parametrize(
    "term, text",
    [
        (Minus(IntLiteral(3)), "x = -(3)"),
        (Minus(IntLiteral(-3)), "x = --3"),
        (Minus(IntLiteral(0)), "x = -(0)"),
        (IntLiteral(-3), "x = -3"),
        (Minus(Minus(IntLiteral(3))), "x = --(3)"),
    ],
)
def test_negated_literal_round_trip(term, text):
    f = Comparison("=", Ident("x"), term)
    assert print_formula(f) == text
    assert parse_predicate(text) == f


def test_substituted_literal_under_minus_round_trip():
    f = substitute(parse_predicate("x = -y"), {"y": IntLiteral(3)})
    assert f == Comparison("=", Ident("x"), Minus(IntLiteral(3)))
    assert parse_predicate(print_formula(f)) == f


# Every operator kind, as (arity, constructor).
_OPERATORS = [(2, cls) for cls in (Iff, Implies, Or, And, Add, Sub, Mul)] + [
    (2, lambda left, right: Comparison("<", left, right)),
    (2, Membership),
    (1, Not),
    (1, Minus),
    (1, lambda body: Quantifier("exists", (Ident("q"),), body)),
]


def _operator_pairs():
    """Each operator kind nested in each operand of each other kind."""
    for outer_arity, outer in _OPERATORS:
        for inner_arity, inner in _OPERATORS:
            nested = inner(*(Ident(n) for n in "bc"[:inner_arity]))
            for side in range(outer_arity):
                operands = [Ident(n) for n in "ad"[:outer_arity]]
                operands[side] = nested
                yield outer(*operands)


def _bracket_pairs(text: str):
    open_at: list[int] = []
    for i, ch in enumerate(text):
        if ch == "(":
            open_at.append(i)
        elif ch == ")":
            yield open_at.pop(), i


def _parses_to(text: str, f) -> bool:
    try:
        return parse_predicate(text) == f
    except ParseError:
        return False


def test_operator_pairs_round_trip_with_minimal_brackets():
    # a bracketed quantifier operand may be the last one, where its
    # brackets could go; the printer keeps them all the same
    lost, needless = [], []
    for f in _operator_pairs():
        text = print_formula(f)
        if not _parses_to(text, f):
            lost.append(text)
        for i, j in _bracket_pairs(text):
            if not text.startswith(("exists", "forall"), i + 1):
                unbracketed = text[:i] + text[i + 1 : j] + text[j + 1 :]
                if _parses_to(unbracketed, f):
                    needless.append(text)
    assert lost == [] and needless == []


# --- components and files ----------------------------------------------------


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_pretty_print_round_trip(name):
    source = (FIXTURES / name).read_text()
    first = parse_source(source, name)
    printed = pretty_print(first)
    again = parse_source(printed, name)
    assert first == again
    # printing is a canonical form: printing again is a fixed point
    assert pretty_print(again) == printed


ROUND_TRIP_SOURCES = {
    "context": (
        "context c1\nextends c0\nsets S T\nconstants k m\naxioms\n  ax1: k in NAT\n  ax2: m in S\n"
        "theorems\n  th1: k + 1 in NAT\nend\n"
    ),
    "witness": (
        "machine c\nrefines a\nvariables y\ninvariants\n  ic1: y in INT\nevents\n"
        "  event step refines step\n  with\n    x': x' = y + 1\n  then\n    a2: y := y + 1\n  end\nend\n"
    ),
    "parameters": (
        "machine m\nvariables x\ninvariants\n  i1: x in INT or false\nevents\n"
        "  event step\n  any p q\n  where\n    g1: p < q & true\n  then\n    a1: x := p\n  end\nend\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIP_SOURCES))
def test_pretty_print_round_trip(kind):
    first = parse_source(ROUND_TRIP_SOURCES[kind], kind)
    printed = pretty_print(first)
    assert parse_source(printed, kind) == first
    assert printed == ROUND_TRIP_SOURCES[kind]  # already in canonical form


def test_parse_is_deterministic():
    source = (FIXTURES / "case0.ebh").read_text()
    assert parse_source(source) == parse_source(source)


def test_machine_sections_and_hints_survive():
    m = parse_source((FIXTURES / "case0.ebh").read_text())
    assert isinstance(m, Machine)
    event = m.events[0]
    assert [h.kind for h in event.hints] == ["splitCase", "useHypothesis"]
    assert event.hints[0].target == "case0_1"
    assert print_formula(event.hints[0].predicate) == "A = 1"
    assert event.hints[1].label == "case0_2"


def test_one_component_per_file():
    with pytest.raises(ParseError, match="one component per file"):
        parse_source("machine a end machine b end")


def test_load_model_success_has_no_diagnostics():
    model, diags = load_model(FIXTURES / "hypSel0.ebh")
    assert diags == []
    assert model is not None
    assert model.machine.name == "hypSel0"


def test_load_model_resolves_refinement_chain():
    model, diags = load_model(FIXTURES / "case0_merge.ebh")
    assert diags == []
    assert model.abstract is not None
    assert model.abstract.machine.name == "case0_abstract"


def test_load_model_syntax_error_single_diagnostic(tmp_path):
    bad = tmp_path / "bad.ebh"
    bad.write_text("machine bad\nvariables x\ninvariants\n  i1: x +\nend\n")
    model, diags = load_model(bad)
    assert model is None
    assert len(diags) == 1
    assert diags[0].code == "syntax"
    # the dangling '+' makes the next token ('end', line 5) the offender
    assert diags[0].loc is not None and diags[0].loc.line == 5


def test_load_model_unresolved_reference(tmp_path):
    src = tmp_path / "lonely.ebh"
    src.write_text("machine lonely refines ghost\nvariables x\nevents\nend\n")
    model, diags = load_model(src)
    assert model is None
    assert any(d.code == "unresolved-reference" and "ghost" in d.message for d in diags)


def test_load_model_name_mismatch(tmp_path):
    (tmp_path / "other.ebh").write_text("machine different\nevents\nend\n")
    src = tmp_path / "top.ebh"
    src.write_text("machine top refines other\nevents\nend\n")
    model, diags = load_model(src)
    assert model is None
    assert any(d.code == "name-mismatch" for d in diags)


def test_load_model_circular_reference(tmp_path):
    (tmp_path / "a.ebh").write_text("machine a refines b\nevents\nend\n")
    (tmp_path / "b.ebh").write_text("machine b refines a\nevents\nend\n")
    model, diags = load_model(tmp_path / "a.ebh")
    assert model is None
    assert any(d.code == "circular-reference" for d in diags)


def test_load_model_sees_a_machine_file(tmp_path):
    (tmp_path / "other.ebh").write_text("machine other\nevents\nend\n")
    src = tmp_path / "top.ebh"
    src.write_text("machine top sees other\nevents\nend\n")
    model, diags = load_model(src)
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("unresolved-reference", "other.ebh does not contain a context")]


def test_load_model_circular_extends_chain(tmp_path):
    (tmp_path / "c1.ebh").write_text("context c1 extends c2\nend\n")
    (tmp_path / "c2.ebh").write_text("context c2 extends c1\nend\n")
    (tmp_path / "m.ebh").write_text("machine m sees c1\nevents\nend\n")
    model, diags = load_model(tmp_path / "m.ebh")
    assert model is None
    assert [(d.code, d.message) for d in diags] == [("circular-reference", "circular extends chain through 'c1'")]
    assert diags[0].path == str(tmp_path / "c2.ebh")


@pytest.mark.parametrize("code", CHAIN_PROBLEMS)
def test_load_model_reports_a_chain_problem_two_levels_see_once(tmp_path, code):
    d, rendered = CHAIN_PROBLEMS[code]
    model, diags = load_model(two_levels_see_c(tmp_path, d=d))
    assert model is None
    assert [diag.render() for diag in diags] == [f"{tmp_path.resolve() / 'c.ebh'}: {rendered}"]


def test_load_model_reports_a_syntax_error_two_levels_see_once(tmp_path):
    model, diags = load_model(two_levels_see_c(tmp_path, "context c\naxioms\n  ax1: 1 +\nend\n"))
    assert model is None
    assert [(d.code, d.path, d.loc) for d in diags] == [("syntax", str(tmp_path.resolve() / "c.ebh"), Loc(4, 1))]


def test_load_model_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_model(tmp_path / "nope.ebh")


def test_load_context_file_directly(tmp_path):
    ctx = tmp_path / "c0.ebh"
    ctx.write_text(
        "context c0\nsets S\nconstants k\naxioms\n  ax1: k in NAT\n"
        "theorems\n  th1: k + 1 in NAT\nend\n"
    )
    model, diags = load_model(ctx)
    assert diags == []
    assert model.contexts[0].name == "c0"
    assert model.contexts[0].sets == ("S",)
