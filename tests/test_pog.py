"""Proof obligation generation: BA predicates, selection, naming, hints."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_FILES, FIXTURES, MODEL_FILES, MODELS
from ebhint.formula import Add, Comparison, Ident, IntLiteral, Quantifier, free_identifiers, substitute
from ebhint.model import (
    INITIALISATION,
    USE_HYPOTHESIS,
    Event,
    Hint,
    Hypothesis,
    LabeledPredicate,
    Machine,
    Model,
    Sequent,
)
from ebhint.parser import load_model, parse_predicate, parse_source
from ebhint.pog import (
    _label_positions,
    _select_at,
    before_after,
    generate,
    normalize_deterministic_ba,
)
from ebhint.printer import pretty_print, print_formula
from ebhint.prover import apply_hints_pog, case_sequents, prove_obligation
from ebhint.record import replace
from ebhint.wellformed import wellformed


def event_of(source: str):
    return parse_source(source).events[0]


def ba_texts(event, variables):
    return [(c.label, print_formula(c.predicate)) for c in before_after(event, variables)]


# --- before-after ------------------------------------------------------------


def test_ba_deterministic_and_frame():
    e = event_of("machine m\nvariables x y\nevents\n  event e\n  then\n    act1: x := y + 1\n  end\nend\n")
    assert ba_texts(e, ("x", "y")) == [("BA:x", "x' = y + 1"), ("BA:y", "y' = y")]


def test_ba_member_of():
    e = event_of("machine m\nvariables x\nevents\n  event e\n  then\n    act1: x :: {1, 2}\n  end\nend\n")
    assert ba_texts(e, ("x",)) == [("BA:x", "x' in {1, 2}")]


def test_ba_such_that_multi_target_single_conjunct():
    e = event_of(
        "machine m\nvariables x y z\nevents\n  event e\n  then\n"
        "    act1: x, z :| x' + z' = x + z\n    act2: y := 0\n  end\nend\n"
    )
    assert ba_texts(e, ("x", "y", "z")) == [
        ("BA:x,z", "x' + z' = x + z"),
        ("BA:y", "y' = 0"),
    ]


def test_ba_pure_frame():
    e = event_of("machine m\nvariables x y\nevents\n  event e\n  end\nend\n")
    assert ba_texts(e, ("x", "y")) == [("BA:x", "x' = x"), ("BA:y", "y' = y")]


def test_ba_total_and_ordered():
    # every variable is constrained by exactly one conjunct, declaration order
    rng = random.Random(7)
    variables = tuple(f"v{i}" for i in range(1, 6))
    for _ in range(50):
        assigned = rng.sample(variables, rng.randint(0, len(variables)))
        lines = ["machine m", "variables " + " ".join(variables), "events", "  event e"]
        if assigned:
            lines.append("  then")
            for j, v in enumerate(assigned):
                lines.append(f"    a{j + 1}: {v} := {v} + 1")
        lines += ["  end", "end"]
        e = event_of("\n".join(lines) + "\n")
        conjuncts = before_after(e, variables)
        covered = [v for c in conjuncts for v in c.variables]
        assert covered == list(variables)


# --- generation on the corpus ------------------------------------------------


def load(name: str) -> Model:
    model, diags = load_model(FIXTURES / name)
    assert diags == [], diags
    return model


def test_po_names_hypsel0():
    poset = generate(load("hypSel0.ebh"))
    assert poset.names() == ("set/hypSel0_1/INV", "set/hypSel0_2/INV")
    assert all(po.kind == "INV" for po in poset.obligations)


def test_default_selection_hypsel0():
    po = generate(load("hypSel0.ebh")).get("set/hypSel0_1/INV")
    assert set(po.sequent.selected_labels()) == {"hypSel0_1", "grd1", "BA:x", "BA:y"}
    # the other invariant is a hypothesis, but not selected
    other = po.sequent.get("hypSel0_2")
    assert other is not None and not other.selected
    # goal is the primed invariant
    assert print_formula(po.sequent.goal) == "x' in NAT"


def test_inv_goal_primes_only_variables():
    po = generate(load("hypSel0.ebh")).get("set/hypSel0_2/INV")
    assert print_formula(po.sequent.goal) == "x' /= 0 => y' in NAT"


def test_normalized_sequent_matches_displayed_form():
    po = generate(load("hypSel0.ebh")).get("set/hypSel0_1/INV")
    seq = normalize_deterministic_ba(po.sequent)
    assert [h.predicate for h in seq.hypotheses] == [
        parse_predicate("x in NAT"),
        parse_predicate("x /= 0 => y in NAT"),
        parse_predicate("x in {1, 2}"),
    ]
    assert seq.goal == parse_predicate("y + 1 in NAT")


def sequential_normalization(sequent: Sequent) -> Sequent:
    """The reference: take the first ``BA:`` equation ``x' = E`` with
    prime-free ``E``, inline it everywhere else, drop it, and scan again."""
    hyps = list(sequent.hypotheses)
    goal = sequent.goal
    changed = True
    while changed:
        changed = False
        for i, h in enumerate(hyps):
            p = h.predicate
            if not (
                h.label.startswith("BA:")
                and isinstance(p, Comparison)
                and p.op == "="
                and isinstance(p.left, Ident)
                and p.left.primed
            ):
                continue
            if any(k.endswith("'") for k in free_identifiers(p.right)):
                continue
            mapping = {p.left.key: p.right}
            hyps = [
                Hypothesis(g.label, substitute(g.predicate, mapping), g.selected)
                for j, g in enumerate(hyps)
                if j != i
            ]
            goal = substitute(goal, mapping)
            changed = True
            break
    return Sequent(tuple(hyps), goal)


def ba_sequent(hyps: list[tuple[str, str]], goal: str) -> Sequent:
    return Sequent(tuple(Hypothesis(label, parse_predicate(text), True) for label, text in hyps), parse_predicate(goal))


def test_normalization_inlines_a_dependent_chain():
    seq = ba_sequent([("BA:y", "y' = x' + 1"), ("h", "y' > z"), ("BA:x", "x' = 0")], "y' + x' >= 0")
    normal = normalize_deterministic_ba(seq)
    assert normal == sequential_normalization(seq)
    assert normal == ba_sequent([("h", "0 + 1 > z")], "0 + 1 + 0 >= 0")


def test_normalization_takes_the_first_equation_of_a_name():
    seq = ba_sequent([("BA:x", "x' = 1"), ("BA:x", "x' = 2"), ("BA:y", "y' = x'")], "x' = y'")
    normal = normalize_deterministic_ba(seq)
    assert normal == sequential_normalization(seq)
    assert normal == ba_sequent([("BA:x", "1 = 2")], "1 = 1")


def test_normalization_keeps_the_order_where_an_earlier_equation_waits():
    # k's first equation waits for m'; inlining j' frees the second one,
    # which the sequential scan then takes before m' = 2 frees the first
    seq = ba_sequent([("BA:k", "k' = m'"), ("BA:j", "j' = 1"), ("BA:k", "k' = j'"), ("BA:m", "m' = 2")], "k' = 0")
    normal = normalize_deterministic_ba(seq)
    assert normal == sequential_normalization(seq)
    assert normal == ba_sequent([("BA:k", "1 = 2")], "1 = 0")


def test_normalization_of_a_wfis_goal_whose_binder_a_replacement_captures():
    # a WFIS goal binds q, which the replacements of x' and y' hold
    seq = ba_sequent(
        [("BA:x", "x' = q + 1"), ("BA:y", "y' = q1 + q"), ("g", "q1 in {1, 2}")],
        "exists q . q = x' + y'",
    )
    normal = normalize_deterministic_ba(seq)
    assert normal == sequential_normalization(seq)
    assert isinstance(normal.goal, Quantifier)
    (binder,) = normal.goal.binders
    assert binder.key not in {"q", "q1"}
    assert free_identifiers(normal.goal) == {"q", "q1"}


def test_normalization_renames_a_hypothesis_binder_in_the_order_taken():
    # q is captured by x' := q and renamed q1, which y' := q1 then
    # captures too; one substitution of both would rename q to q2
    seq = ba_sequent([("BA:x", "x' = q"), ("BA:y", "y' = q1"), ("h", "forall q . x' + y' <= q")], "x' > 0")
    normal = normalize_deterministic_ba(seq)
    assert normal == sequential_normalization(seq)
    assert normal == ba_sequent([("h", "forall q11 . q + q1 <= q11")], "q > 0")


def test_normalization_equals_the_sequential_scan_on_every_generated_obligation():
    models = [load(name) for name in FIXTURE_FILES]
    models += [load_model(path)[0] for path in sorted(MODELS.glob("*.ebh"))]
    checked = 0
    for model in models:
        poset = generate(model)
        for po in poset.obligations + apply_hints_pog(poset)[0].obligations:
            assert normalize_deterministic_ba(po.sequent) == sequential_normalization(po.sequent), po.name
            checked += 1
    assert checked > 100


_KEYS = ("a'", "b'", "c'")
_ba_terms = st.one_of(
    st.sampled_from(_KEYS + ("a", "b", "q", "q1")).map(lambda k: Ident(k.rstrip("'"), primed=k.endswith("'"))),
    st.integers(-3, 3).map(IntLiteral),
)
_ba_exprs = st.lists(_ba_terms, min_size=1, max_size=3).map(lambda ts: ts[0] if len(ts) == 1 else Add(ts[0], ts[1]))


@st.composite
def ba_equation_sequents(draw) -> Sequent:
    """Sequents of ``BA:`` equations over a few primed names, with
    repeated names, equations that wait for others, up to two quantified
    hypotheses that bind ``q``, ``a`` or ``b'``, and a goal that may
    bind ``q`` or ``a``."""
    hyps = []
    for i in range(draw(st.integers(0, 6))):
        key = draw(st.sampled_from(_KEYS))
        left = Ident(key[:-1], primed=True)
        label = draw(st.sampled_from(("BA:" + key[:-1], f"h{i}")))
        hyps.append(Hypothesis(label, Comparison("=", left, draw(_ba_exprs)), draw(st.booleans())))
    for i in range(draw(st.integers(0, 2))):
        binder = draw(st.sampled_from(("q", "a", "b'")))
        body = Comparison("<=", draw(_ba_exprs), draw(_ba_exprs))
        quantified = Quantifier("forall", (Ident(binder.rstrip("'"), primed=binder.endswith("'")),), body)
        hyps.insert(draw(st.integers(0, len(hyps))), Hypothesis(f"q{i}", quantified, draw(st.booleans())))
    goal = Comparison("<=", draw(_ba_exprs), draw(_ba_exprs))
    binder = draw(st.sampled_from((None, "q", "a")))
    if binder is not None:
        goal = Quantifier("exists", (Ident(binder),), goal)
    return Sequent(tuple(hyps), goal)


@settings(max_examples=300, deadline=None)
@given(ba_equation_sequents())
def test_normalization_equals_the_sequential_scan(seq):
    assert normalize_deterministic_ba(seq) == sequential_normalization(seq)


def test_guard_theorem_obligation():
    poset = generate(load("hypSel0_workaround.ebh"))
    po = poset.get("set/thm1/THM")
    assert po is not None and po.kind == "THM"
    # all hypotheses of a THM obligation are selected
    assert po.sequent.selected_labels() == po.sequent.labels()
    assert print_formula(po.sequent.goal) == "x /= 0 => y in NAT"


def test_machine_theorem_obligation():
    src = (
        "machine m\nvariables x\ninvariants\n  i1: x in NAT\n"
        "theorems\n  t1: x + 1 in NAT\n  t2: x + 2 in NAT\nevents\nend\n"
    )
    poset = generate(Model(machine=parse_source(src)))
    assert poset.names() == ("m/t1/THM", "m/t2/THM")
    second = poset.get("m/t2/THM")
    # an earlier theorem is available to a later one
    assert "t1" in second.sequent.labels()
    assert second.sequent.selected_labels() == second.sequent.labels()


def test_context_theorem_obligation(tmp_path):
    (tmp_path / "c0.ebh").write_text(
        "context c0\nconstants k\naxioms\n  ax1: k in NAT\n"
        "theorems\n  th1: k + 1 in NAT\nend\n"
    )
    (tmp_path / "m.ebh").write_text(
        "machine m sees c0\nvariables x\ninvariants\n  i1: x in NAT\nevents\nend\n"
    )
    model, diags = load_model(tmp_path / "m.ebh")
    assert diags == []
    poset = generate(model)
    po = poset.get("c0/th1/THM")
    assert po is not None
    assert po.sequent.labels() == ("ax1",)
    assert print_formula(po.sequent.goal) == "k + 1 in NAT"


def test_merge_obligation_goal_is_guard_disjunction():
    poset = generate(load("case0_merge.ebh"))
    po = poset.get("set/MRG")
    assert po is not None and po.kind == "MRG"
    assert po.sequent.goal == parse_predicate("A = 1 or A /= 1")
    # merge hypotheses are the visible facts and concrete guards only
    assert set(po.sequent.labels()) == {
        "case0_1", "case0_2", "case0_3", "minv0_1", "minv0_2", "minv0_3",
    }


def test_simulation_obligations_cover_action_and_frames():
    poset = generate(load("case0_merge.ebh"))
    sims = [po.name for po in poset.obligations if po.kind == "SIM"]
    assert sims == ["set/act1/SIM", "set/BA:B/SIM", "set/BA:C/SIM"]
    action = poset.get("set/act1/SIM")
    assert print_formula(action.sequent.goal) == "A' = B - 1"


def test_guard_strengthening_obligation():
    abstract = (
        "machine a\nvariables x\ninvariants\n  ia1: x in INT\nevents\n"
        "  event step\n  where\n    g1: x >= 0\n  then\n    a1: x := x + 1\n  end\nend\n"
    )
    concrete = (
        "machine c refines a\nvariables x\nevents\n"
        "  event step refines step\n  where\n    g1: x >= 1\n  then\n"
        "    a1: x := x + 1\n  end\nend\n"
    )
    model = Model(machine=parse_source(concrete), abstract=Model(machine=parse_source(abstract)))
    poset = generate(model)
    po = poset.get("step/g1/GRD")
    assert po is not None and po.kind == "GRD"
    assert print_formula(po.sequent.goal) == "x >= 0"
    grd_hyp = po.sequent.get("g1")
    assert grd_hyp is not None and grd_hyp.selected


def test_refining_a_missing_abstract_event_builds_no_grd_or_sim():
    """`wellformed` reports `unknown-event`; `generate` on the unchecked
    model still runs, and has no abstract guard or action to refine."""
    abstract = "machine a\nvariables x\nevents\n  event other\n  then\n    a1: x := 0\n  end\nend\n"
    concrete = (
        "machine c refines a\nvariables x\ninvariants\n  i1: x in INT\nevents\n"
        "  event step refines ghost\n  where\n    g1: x >= 1\n  then\n"
        "    a1: x := x + 1\n  end\nend\n"
    )
    model = Model(machine=parse_source(concrete), abstract=Model(machine=parse_source(abstract)))
    names = [po.name for po in generate(model).obligations if po.name.startswith("step/")]
    assert names == ["step/i1/INV"]


def test_wfis_obligation_shape():
    abstract = (
        "machine a\nvariables x y\ninvariants\n  ia1: x in INT\n  ia2: y in INT\n"
        "events\n  event step\n  then\n    a1: x := x + 1\n    a2: y := y + 1\n  end\nend\n"
    )
    concrete = (
        "machine c refines a\nvariables y\ninvariants\n  ic1: y in INT\n"
        "events\n  event step refines step\n  with x': x' = y' + 1\n"
        "  then\n    a2: y := y + 1\n  end\nend\n"
    )
    model = Model(machine=parse_source(concrete), abstract=Model(machine=parse_source(abstract)))
    poset = generate(model)
    po = poset.get("step/x'/WFIS")
    assert po is not None and po.kind == "WFIS"
    assert print_formula(po.sequent.goal) == "exists x' . x' = y' + 1"
    # the primed witness needs the concrete BA to pin y'
    assert "BA:y" in po.sequent.labels()


def test_initialisation_obligations_use_axioms_only(tmp_path):
    (tmp_path / "c0.ebh").write_text("context c0\nconstants k\naxioms\n  ax1: k >= 1\nend\n")
    (tmp_path / "m.ebh").write_text(
        "machine m sees c0\nvariables x\ninvariants\n  i1: x >= k\nevents\n"
        "  initialisation\n  then\n    a1: x := k\n  end\nend\n"
    )
    model, diags = load_model(tmp_path / "m.ebh")
    assert diags == []
    po = generate(model).get("INITIALISATION/i1/INV")
    assert po is not None
    # no invariant hypotheses before the first state exists
    assert "i1" not in po.sequent.labels()
    assert "ax1" in po.sequent.labels()
    assert print_formula(po.sequent.goal) == "x' >= k"


def test_generation_is_deterministic():
    def snapshot():
        poset = generate(load("case0_merge.ebh"))
        return [
            (
                po.name,
                po.kind,
                [(h.label, h.selected, print_formula(h.predicate)) for h in po.sequent.hypotheses],
                print_formula(po.sequent.goal),
            )
            for po in poset.obligations
        ]

    assert snapshot() == snapshot()


def test_every_hypothesis_is_labeled():
    for name in FIXTURE_FILES:
        for po in generate(load(name)).obligations:
            labels = [h.label for h in po.sequent.hypotheses]
            assert all(labels), po.name
            assert len(labels) == len(set(labels)), po.name


def test_po_count_law_on_corpus():
    for name in ("hypSel0.ebh", "hypSel0_workaround.ebh", "case0.ebh", "case0_abstract.ebh"):
        model = load(name)
        poset = generate(model)
        inv = [po for po in poset.obligations if po.kind == "INV"]
        expected = len(model.machine.events) * len(model.machine.invariants)
        assert len(inv) == expected, name


def test_select_at_label_positions_equals_select():
    """INV obligations select their invariant by position; that must be
    `Sequent.select` of its label, also when the label is already
    selected or stands on several hypotheses."""
    x = parse_predicate("x = 1")
    hyps = (
        Hypothesis("a", x),
        Hypothesis("b", x, selected=True),
        Hypothesis("a", parse_predicate("x = 2")),
        Hypothesis("c", x),
        Hypothesis("a", x, selected=True),
        Hypothesis("b", x),
    )
    where = _label_positions(hyps)
    assert where == {"a": [0, 2, 4], "b": [1, 5], "c": [3]}
    seq = Sequent(hyps, x)
    for label in ("a", "b", "c", "missing"):
        selected = Sequent(_select_at(hyps, where.get(label, ())), x)
        assert selected == seq.select({label})
    assert _select_at(hyps, ()) == hyps


# --- one owner's obligations ---------------------------------------------------

# A refinement whose machine is named like one of its events, with
# parameter and primed witnesses, a use hint on the initialisation that
# cannot resolve there, and split and use hints elsewhere.
OWNER_ABSTRACT = """machine walk
variables x y
invariants
  ia1: x in NAT
  ia2: y <= x
events
  initialisation
  then
    a1: x := 0
    a2: y := 0
  end
  event step
  any p
  where
    g1: p in {1, 2}
  then
    a1: x := x + p
  end
  event reset
  then
    a1: y := 0
  end
end
"""
OWNER_CONCRETE = """machine step refines walk
variables x z
invariants
  ic1: z = y
  ic2: z <= x
theorems
  t1: z <= x + 1
events
  initialisation
  then
    a1: x := 0
    a2: z := 0
  hints
    use ia2 for ic2
  end
  event step refines step
  any q
  where
    g1: q in {1, 2}
  with
    p: p = q
    y': y' = z
  then
    a1: x := x + q
  hints
    split case using q = 1 for ic2
    use ia2 for ic1
  end
  event reset refines reset
  with
    y': y' = 0
  then
    a1: z := 0
  hints
    use ic1 for ic2
  end
  event drift
  then
    a1: x := x + 1
  end
end
"""


def _owner(name: str) -> str:
    return name.partition("/")[0]


def owner_models(tmp_path) -> list[Model]:
    (tmp_path / "walk.ebh").write_text(OWNER_ABSTRACT)
    (tmp_path / "step.ebh").write_text(OWNER_CONCRETE)
    models = [load(name) for name in FIXTURE_FILES]
    paths = sorted(MODELS.glob("*.ebh")) + [tmp_path / "step.ebh"]
    for path in paths:
        model, diags = load_model(path)
        assert diags == [] and wellformed(model) == [], path
        models.append(model)
    return models


def test_owner_model_names_its_machine_like_an_event(tmp_path):
    model = owner_models(tmp_path)[-1]
    assert model.machine.name == "step" and model.machine.event("step") is not None
    names = generate(model).names()
    assert {name.rpartition("/")[2] for name in names} == {"THM", "GRD", "WFIS", "SIM", "INV"}
    assert {"step/t1/THM", "step/p/WFIS", "step/y'/WFIS", "step/g1/GRD"} <= set(names)
    assert "step/ic2/INV/case1" in apply_hints_pog(generate(model))[0].names()


def test_generate_for_an_owner_is_the_full_set_filtered(tmp_path):
    for model in owner_models(tmp_path):
        full = generate(model)
        rewritten, _ = apply_hints_pog(full)
        owners = {_owner(name) for name in full.names()}
        assert owners, model.machine.name
        for owner in sorted(owners) + ["nosuch"]:
            part = generate(model, owner)
            assert part.source_machine == full.source_machine
            assert part.obligations == tuple(po for po in full.obligations if _owner(po.name) == owner)
            assert apply_hints_pog(part)[0].obligations == tuple(
                po for po in rewritten.obligations if _owner(po.name) == owner
            ), (model.machine.name, owner)
        assert generate(model, "nosuch").obligations == ()


def test_only_the_initialisation_draws_hint_diagnostics(tmp_path):
    """`export-smt` in pog mode rewrites one owner's obligations and
    takes the hint diagnostics from the initialisation's: on a
    well-formed model those are all the diagnostics there are."""
    drawn = 0
    for model in owner_models(tmp_path):
        _, diags = apply_hints_pog(generate(model))
        assert apply_hints_pog(generate(model, INITIALISATION))[1] == diags
        drawn += len(diags)
    assert drawn


# --- pog-mode hint application ------------------------------------------------


def test_apply_hints_pog_use_selects_payload():
    model = load("hypSel0.ebh")
    poset, diags = apply_hints_pog(generate(model))
    assert diags == []
    po = poset.get("set/hypSel0_1/INV")
    assert set(po.sequent.selected_labels()) == {
        "hypSel0_1", "hypSel0_2", "grd1", "BA:x", "BA:y",
    }
    assert po.hint_applied == "use hypSel0_2 for hypSel0_1"
    # the untargeted obligation is untouched
    other = poset.get("set/hypSel0_2/INV")
    assert other.hint_applied is None


def test_apply_hints_pog_case_children():
    model = load("case0.ebh")
    poset, diags = apply_hints_pog(generate(model))
    assert diags == []
    names = poset.names()
    assert "set/case0_1/INV" not in names
    assert "set/case0_1/INV/case1" in names and "set/case0_1/INV/case2" in names
    case1 = poset.get("set/case0_1/INV/case1")
    case2 = poset.get("set/case0_1/INV/case2")
    assert case1.sequent.get("case+").predicate == parse_predicate("A = 1")
    assert case2.sequent.get("case-").predicate == parse_predicate("not A = 1")
    # the case predicate shares A, so the A-invariants join the selection
    extra = set(case1.sequent.selected_labels()) - {"BA:A", "BA:B", "BA:C", "case+"}
    assert extra == {"case0_1", "case0_2", "case0_3"}


def test_apply_hints_pog_without_hints_is_identity():
    model = load("case0_abstract.ebh")
    poset = generate(model)
    rewritten, diags = apply_hints_pog(poset)
    assert diags == []
    assert all(a is b for a, b in zip(rewritten.obligations, poset.obligations, strict=True))


def test_apply_hints_pog_leaves_no_hint():
    models = [load(name) for name in FIXTURE_FILES]
    models += [load_model(MODELS / name)[0] for name in MODEL_FILES]
    hinted = 0
    for model in models:
        poset = generate(model)
        assert all(po.hint is None or po.kind == "INV" for po in poset.obligations)
        hinted += sum(po.hint is not None for po in poset.obligations)
        rewritten, _ = apply_hints_pog(poset)
        assert all(po.hint is None for po in rewritten.obligations), model.machine.name
        # an obligation without a hint passes through as the same object
        kept = {po.name: po for po in rewritten.obligations}
        for po in poset.obligations:
            if po.hint is None:
                assert kept[po.name] is po
    assert hinted


# --- which obligation carries which hint -----------------------------------------


def test_inv_obligations_carry_their_events_first_matching_hint(init_split_model):
    model, diags = load_model(init_split_model)
    assert diags == []
    (po,) = generate(model).obligations
    assert po.hint == model.machine.initialisation.hints[0]
    assert po.hint.predicate == parse_predicate("k = 1")

    first = Hint(USE_HYPOTHESIS, "i1", label="ax1")
    later = Hint(USE_HYPOTHESIS, "i1", label="ax9")
    other = Hint(USE_HYPOTHESIS, "i2", label="ax2")
    second = Hint(USE_HYPOTHESIS, "i1", label="ax3")
    init = Hint(USE_HYPOTHESIS, "i2", label="ax4")
    invariants = tuple(LabeledPredicate(label, parse_predicate("x in NAT")) for label in ("i1", "i2"))
    machine = Machine(
        "m",
        variables=("x",),
        invariants=invariants,
        events=(Event("e", hints=(first, other, later)), Event("e", hints=(second,))),
        initialisation=Event(INITIALISATION, hints=(init,)),
    )
    carried = [(po.name, po.hint) for po in generate(Model(machine)).obligations]
    assert carried == [
        ("INITIALISATION/i1/INV", None),
        ("INITIALISATION/i2/INV", init),
        ("e/i1/INV", first),
        ("e/i2/INV", other),
        ("e/i1/INV", second),
        ("e/i2/INV", None),
    ]
    assert all(po.hint is None for po in generate(Model(machine.without_hints())).obligations)


def test_without_hints_strips_initialisation_hints(init_split_model):
    model, _ = load_model(init_split_model)
    stripped = model.machine.without_hints()
    assert stripped.initialisation.hints == ()
    init_split_model.write_text(pretty_print(stripped))
    reloaded, diags = load_model(init_split_model)
    assert diags == []
    poset, diags = apply_hints_pog(generate(reloaded))
    assert diags == []
    assert poset.names() == ("INITIALISATION/i1/INV",)
    assert poset.obligations[0].hint_applied is None


def test_initialisation_use_hint_on_missing_label(tmp_path):
    # invariants are no hypotheses of the initialisation's obligations
    path = tmp_path / "use0.ebh"
    path.write_text(
        "machine use0\nvariables x y\ninvariants\n  i1: x in NAT\n  i2: y in NAT\nevents\n"
        "  initialisation\n  then\n    a1: x := 0\n    a2: y := 0\n"
        "  hints\n    use i2 for i1\n  end\nend\n"
    )
    model, diags = load_model(path)
    assert diags == []
    poset = generate(model)
    po = poset.get("INITIALISATION/i1/INV")
    result = prove_obligation(po)
    assert result.trace[0].render() == "tacticSelect(i2 not available)"
    assert result.hint_applied is None
    rewritten, diags = apply_hints_pog(poset)
    assert [d.code for d in diags] == ["unresolved-hint-label"]
    assert rewritten.get(po.name) == replace(po, hint=None)


def test_case_sequents_single_round_relevance():
    from ebhint.model import Hypothesis, Sequent

    s = Sequent(
        (
            Hypothesis("h1", parse_predicate("A = B")),
            Hypothesis("h2", parse_predicate("B = C")),
        ),
        parse_predicate("A >= 0"),
    )
    pos, neg = case_sequents(s, parse_predicate("A = 1"))
    # h1 shares A with the case predicate; h2 only touches it transitively
    assert pos.get("h1").selected and not pos.get("h2").selected
    assert neg.get("h1").selected and not neg.get("h2").selected
    assert pos.get("case+").predicate == parse_predicate("A = 1")


def test_case_sequents_fresh_labels():
    from ebhint.model import Hypothesis, Sequent

    s = Sequent((Hypothesis("case+", parse_predicate("A = 0")),), parse_predicate("A >= 0"))
    pos, _neg = case_sequents(s, parse_predicate("A = 1"))
    labels = pos.labels()
    assert len(labels) == len(set(labels))
