"""Proof obligation generation: BA predicates, selection, naming, hints."""

from __future__ import annotations

import random
from dataclasses import replace

from conftest import FIXTURE_FILES, FIXTURES
from ebhint.model import (
    INITIALISATION,
    USE_HYPOTHESIS,
    Event,
    Hint,
    Hypothesis,
    Machine,
    Model,
    Sequent,
)
from ebhint.parser import load_model, parse_predicate, parse_source
from ebhint.pog import (
    _label_positions,
    _select_at,
    apply_hints_pog,
    before_after,
    case_sequents,
    check_new_events,
    generate,
    normalize_deterministic_ba,
)
from ebhint.printer import pretty_print, print_formula
from ebhint.prover import prove_obligation


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


# --- pog-mode hint application ------------------------------------------------


def test_apply_hints_pog_use_selects_payload():
    model = load("hypSel0.ebh")
    poset, diags = apply_hints_pog(generate(model), model)
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
    poset, diags = apply_hints_pog(generate(model), model)
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
    rewritten, diags = apply_hints_pog(poset, model)
    assert diags == []
    assert rewritten.obligations == poset.obligations


# --- hints on the initialisation ----------------------------------------------


def test_event_hints_cover_initialisation(init_split_model):
    model, diags = load_model(init_split_model)
    assert diags == []
    (hint,) = model.machine.event_hints("INITIALISATION")
    assert hint.target == "i1"
    assert hint.predicate == parse_predicate("k = 1")
    assert model.machine.event_hints("nope") == ()
    assert model.machine.event_hints(None) == ()
    machine = load("case0.ebh").machine
    assert machine.event_hints("set") == machine.event("set").hints


def test_event_hints_first_event_of_a_name_wins():
    first = Hint(USE_HYPOTHESIS, "i1", label="ax1")
    second = Hint(USE_HYPOTHESIS, "i1", label="ax2")
    init = Hint(USE_HYPOTHESIS, "i1", label="ax3")
    machine = Machine(
        "m",
        events=(Event("e", hints=(first,)), Event("e", hints=(second,)), Event(INITIALISATION)),
        initialisation=Event(INITIALISATION, hints=(init,)),
    )
    assert machine.event_hints("e") == (first,)
    assert machine.event_hints(INITIALISATION) == ()
    assert replace(machine, events=()).event_hints(INITIALISATION) == (init,)
    assert replace(machine, events=machine.events[1:]).event_hints("e") == (second,)
    assert machine.without_hints().event_hints("e") == ()
    assert machine.event_hints("e") == (first,)


def test_without_hints_strips_initialisation_hints(init_split_model):
    model, _ = load_model(init_split_model)
    stripped = model.machine.without_hints()
    assert stripped.initialisation.hints == ()
    init_split_model.write_text(pretty_print(stripped))
    reloaded, diags = load_model(init_split_model)
    assert diags == []
    poset, diags = apply_hints_pog(generate(reloaded), reloaded)
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
    result = prove_obligation(po, model.machine.event_hints(po.origin.event))
    assert result.trace[0].render() == "tacticSelect(i2 not available)"
    assert result.hint_applied is None
    rewritten, diags = apply_hints_pog(poset, model)
    assert [d.code for d in diags] == ["unresolved-hint-label"]
    assert rewritten.get(po.name).sequent == po.sequent


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
