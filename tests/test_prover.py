"""The decision core and the tactic layer."""

from __future__ import annotations

import functools
import random
import sys
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_FILES, FIXTURES
from ebhint import prover
from ebhint.formula import Truth, balanced, evaluate
from ebhint.model import Hypothesis, Sequent
from ebhint.parser import load_model, parse_predicate
from ebhint.pog import apply_hints_pog, case_sequents, generate
from ebhint.prover import (
    PROVED,
    UNPROVED,
    UNSUPPORTED,
    ProveOptions,
    decide,
    intro,
    one_point,
    prove_obligation,
    split_conjunction,
    tactic_cut,
    tactic_lasso,
    tactic_select,
)
from oracle import grid_counterexample, holds_at
from strategies import random_sequent, sequents


def p(text: str):
    return parse_predicate(text)


def seq(hyp_texts, goal_text, selected=True):
    hyps = tuple(
        Hypothesis(f"h{i + 1}", p(t), selected=selected) for i, t in enumerate(hyp_texts)
    )
    return Sequent(hyps, p(goal_text))


# --- decide: frozen examples ---------------------------------------------------


def test_decide_case_branch_example():
    d = decide((p("A <= C"), p("A = 1 => B <= C"), p("A = 1")), p("B - 1 <= C"))
    assert d.status == PROVED


def test_decide_counterexample_example():
    hyps = (p("x in NAT"), p("x in {1, 2}"))
    goal = p("y + 1 in NAT")
    d = decide(hyps, goal)
    assert d.status == UNPROVED
    assert d.counterexample is not None
    val = dict(d.counterexample)
    assert all(evaluate(h, val) for h in hyps)
    assert not evaluate(goal, val)


def test_decide_tautology_example():
    d = decide((), p("A = 1 or A /= 1"))
    assert d.status == PROVED


def test_decide_inconsistent_hypotheses():
    d = decide((p("x <= 0"), p("x >= 1")), p("1 = 2"))
    assert d.status == PROVED


def test_decide_quantifier_unsupported():
    d = decide((), p("exists q . q <= k"))
    assert d.status == UNSUPPORTED


def test_decide_nonlinear_unsupported():
    d = decide((), p("x * x >= 0"))
    assert d.status == UNSUPPORTED


def test_decide_opaque_set_membership_sound():
    # S is a named set: x in S proves x in S, but nothing more
    assert decide((p("x in S"),), p("x in S")).status == PROVED
    d = decide((p("x in S"),), p("y in S"))
    assert d.status == UNPROVED
    assert d.counterexample is None  # not confirmable, so not reported


def test_decide_branch_budget():
    hyps = tuple(p(f"v{i} in {{0, 1}}") for i in range(20))
    d = decide(hyps, p("v0 + v1 >= 9"), cap=4)
    assert d.status == UNPROVED
    assert "branch cap" in d.reason
    assert d.counterexample is None


def test_decide_past_deadline_times_out():
    d = decide((p("x <= 0"),), p("x <= 1"), deadline=time.perf_counter() - 1)
    assert d.status == UNPROVED
    assert d.reason == "timeout"


def test_fm_checks_deadline_per_row_pair_without_ticking():
    class Counting(prover._Search):
        deadline_checks = 0

        def check_deadline(self):
            self.deadline_checks += 1

    # three lower and three upper bounds on x, eliminated in one step
    assignment = {}
    for k in range(3):
        assignment[("lin", (("x", -1), ("y", 1)), k)] = True
        assignment[("lin", (("x", 1),), 5 + k)] = True
    search = Counting(None, 1 << 16)
    feasible, _ = prover._feasible(assignment, search)
    assert feasible
    assert search.visited == 2  # one tick per eliminated variable, x and y
    assert search.deadline_checks >= search.visited + 9


# The pathological sequents of the benchmark's decide workload, as text.
# The second adds the plainly contradictory `b in {-1,-7,4} & b in {7,8}`
# and one more hypothesis to the first; both are valid.
SLOW_HYPS = (
    "(c + 1 * c <= 3 * c - 3) & (not (c in {-3, -2, -1}))",
    "not ((3 * a + b + d /= d - c) or ((-8) - 1 * c < c - 4))",
    "c in {-7, 3, 0}",
    "c in {8, 4}",
)
SLOW_GOAL = "((b in NAT) or (c in {6, -4})) & ((3 * c - (-8) - b > b) => (c - c - c /= (-4) + 3 * a))"
PINNED = (
    (SLOW_HYPS, SLOW_GOAL),
    (SLOW_HYPS + ("b in {-1,-7,4} & b in {7,8}", "a + d <= 6"), SLOW_GOAL),
)


@pytest.mark.parametrize("cap", [1 << 16, 2_000])
@pytest.mark.parametrize("index", [0, 1])
def test_decide_pinned_pathological_sequents(index, cap):
    hyps, goal = PINNED[index]
    d = decide(tuple(p(h) for h in hyps), p(goal), cap=cap)
    assert d.status == PROVED, d.reason


def test_decide_monotone_on_pinned_witness():
    hyps, goal = PINNED[1]
    statuses = [decide(tuple(p(h) for h in hyps[:n]), p(goal)).status for n in range(len(hyps) + 1)]
    first = statuses.index(PROVED)
    assert statuses[first:] == [PROVED] * (len(statuses) - first)


# Branches and Fourier-Motzkin stages (`_Search.visited`) of the pinned
# sequents.  The branch cap counts them, so a different count can move
# a verdict under some cap.
PINNED_VISITED = (4, 4)


def decide_visited(monkeypatch, hyps, goal, **kwargs):
    """decide, and the branch counter of the search it ran."""
    searches = []

    class Recording(prover._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(prover, "_Search", Recording)
    decision = decide(hyps, goal, **kwargs)
    [search] = searches
    return decision, search.visited


@pytest.mark.parametrize("cap", [1 << 16, 2_000])
@pytest.mark.parametrize("index", [0, 1])
def test_decide_pinned_visited_counts(monkeypatch, index, cap):
    hyps, goal = PINNED[index]
    _, visited = decide_visited(monkeypatch, tuple(p(h) for h in hyps), p(goal), cap=cap)
    assert visited == PINNED_VISITED[index]


def test_decide_twice_is_the_same_search(monkeypatch):
    # the theory memos live and die with one decide call
    rng = random.Random(5)
    cases = [(tuple(p(h) for h in hyps), p(goal)) for hyps, goal in PINNED]
    for _ in range(40):
        s = random_sequent(rng)
        cases.append((tuple(h.predicate for h in s.hypotheses), s.goal))
    for hyps, goal in cases:
        assert decide_visited(monkeypatch, hyps, goal) == decide_visited(monkeypatch, hyps, goal)


def test_feasible_joins_components_through_a_later_row():
    # {b, d} and then {c, d} form one component before 2a + b <= -5
    # joins {a} to it, so b = 0 meets a = 0 in one elimination
    rows = [
        ((("b", 2), ("d", -1)), -1),
        ((("a", 1),), 0),
        ((("a", -1),), 0),
        ((("c", 1), ("d", 1)), 2),
        ((("a", 2), ("b", 1)), -5),
        ((("d", -1),), 4),
        ((("b", 1),), 0),
        ((("b", -1),), 0),
    ]
    assignment = {("lin", coeffs, bound): True for coeffs, bound in rows}
    search = prover._Search(None, 1 << 16)
    assert prover._feasible(assignment, search) == (False, None)
    assert search.visited == 2  # a, then b gives the false row


def _linear_system(names):
    """Assignments of linear literals over the given variable names."""
    row = st.tuples(
        st.dictionaries(st.sampled_from(names), st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
        st.integers(-6, 6),
        st.booleans(),
    )
    return st.lists(row, max_size=8).map(
        lambda rows: {
            atom[1]: value
            for coeffs, bound, value in rows
            if (atom := prover._atom(coeffs, bound))[0] == "lit"
        }
    )


def satisfies(assignment, sample):
    return all(
        (sum(c * sample[name] for name, c in coeffs) <= bound) == value
        for (_, coeffs, bound), value in assignment.items()
    )


@settings(max_examples=200, deadline=None)
@given(_linear_system(("a", "c", "e", "g")), _linear_system(("b", "d", "f", "h")))
def test_feasible_on_disjoint_systems_combines_the_parts(left, right):
    parts = []
    for assignment in (left, right):
        search = prover._Search(None, 1 << 16)
        feasible, sample = prover._feasible(assignment, search)
        assert sample is None or satisfies(assignment, sample)
        names = sorted({name for _, coeffs, _ in assignment for name, _ in coeffs})
        # the variable whose elimination gave a false row
        stop = None if feasible else names[search.visited - 1]
        parts.append((feasible, sample, names, stop))
    search = prover._Search(None, 1 << 16)
    feasible, sample = prover._feasible({**left, **right}, search)
    assert feasible == (parts[0][0] and parts[1][0])
    assert sample is None or satisfies({**left, **right}, sample)
    names = sorted(parts[0][2] + parts[1][2])
    stops = [stop for *_, stop in parts if stop is not None]
    # one tick per variable in sorted order, up to the first false stage
    assert search.visited == (len([n for n in names if n <= min(stops)]) if stops else len(names))
    if feasible:
        left_sample, right_sample = parts[0][1], parts[1][1]
        if left_sample is None or right_sample is None:
            assert sample is None
        else:
            assert sample == {**left_sample, **right_sample}


# --- long chains ---------------------------------------------------------------


def _leaves_and_depth(tree, depth=0):
    if tree[0] in ("and", "or"):
        left, dl = _leaves_and_depth(tree[1], depth + 1)
        right, dr = _leaves_and_depth(tree[2], depth + 1)
        return left + right, max(dl, dr)
    return [tree], depth


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 1_000])
def test_balanced_chain_keeps_leaf_order_at_log_depth(n):
    leaves = [("lit", ("set", "S", k), True) for k in range(n)]
    tree = balanced(lambda a, b: ("or", a, b), leaves)
    assert _leaves_and_depth(tree) == (leaves, (n - 1).bit_length())


def test_decide_on_many_hypotheses():
    hyps = tuple(p(f"x <= {k}") for k in range(2_000))
    assert decide(hyps, p("x < 2000")).status == PROVED


def test_decide_on_long_set_literal():
    # the membership's tree, as a hypothesis and negated in the goal;
    # the other side is false, so no search follows
    members = "{" + ", ".join(str(k) for k in range(1_000)) + "}"
    assert decide((p(f"x in {members}"),), p("x = x")).status == PROVED
    assert decide((p("1 = 2"),), p(f"x in {members}")).status == PROVED


def test_negated_set_membership_keeps_its_literal_order():
    # the order of the literals steers the search, and so `visited`
    assert prover._nnf(p("not (x in {1, 2, 3})"), True) == prover._nnf(p("1 /= x & 2 /= x & 3 /= x"), True)


def test_decide_search_deeper_than_the_recursion_limit():
    # the only model, x = 300, lies 300 branches deep
    members = "{" + ", ".join(str(k) for k in range(300)) + "}"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        d = decide((p("x >= 0"), p("x <= 300")), p(f"x in {members}"))
    finally:
        sys.setrecursionlimit(limit)
    assert d.counterexample == (("x", 300),)


# --- one memo shared by many decide calls ----------------------------------------


def recorded_decide(hyps, goal, memo=None):
    """decide, and the branch counter of its search (None when it ran none)."""
    searches = []

    class Recording(prover._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    with mock.patch.object(prover, "_Search", Recording):
        decision = decide(hyps, goal, memo=memo)
    return decision, searches[0].visited if searches else None


@functools.cache
def memo_cases() -> tuple:
    """`PINNED` and every decide call that proving the fixtures makes in
    both hint modes, each with its result under a fresh memo."""
    calls = [(tuple(p(h) for h in hyps), p(goal)) for hyps, goal in PINNED]

    def recording(hyps, goal, *args, **kwargs):
        calls.append((hyps, goal))
        return decide(hyps, goal, *args, **kwargs)

    with mock.patch.object(prover, "decide", recording):
        for name in FIXTURE_FILES:
            model, _ = load_model(FIXTURES / name)
            poset = generate(model)
            for po in poset.obligations:
                prove_obligation(po)
            for po in apply_hints_pog(poset)[0].obligations:
                prove_obligation(po)
    return tuple((case, recorded_decide(*case)) for case in calls)


@settings(max_examples=20, deadline=None)
@given(st.lists(sequents(), max_size=6), st.data())
def test_shared_memo_gives_the_same_search(extra, data):
    cases = list(memo_cases())
    for s in extra:
        case = (tuple(h.predicate for h in s.hypotheses), s.goal)
        cases.append((case, recorded_decide(*case)))
    memo = prover.Memo()
    for i in data.draw(st.permutations(range(len(cases)))):
        case, fresh = cases[i]
        assert recorded_decide(*case, memo=memo) == fresh


# --- tactics -------------------------------------------------------------------


def test_one_point_direct_equality():
    assert one_point(p("exists q . q = r")) == Truth()


def test_one_point_partial_elimination():
    got = one_point(p("exists v' . v' = w' + 1 & v' >= 0"))
    assert got == p("w' + 1 >= 0")


def test_one_point_inapplicable():
    assert one_point(p("exists q . q <= k")) is None
    assert one_point(p("q = 1")) is None


def test_one_point_multiple_binders():
    got = one_point(p("exists a b . a = b + 1 & b = 5"))
    assert got == Truth()


def test_one_point_skips_self_referential_equation():
    assert one_point(p("exists a . a = a + 1")) is None


def test_intro_moves_antecedent():
    s = seq([], "x = 1 => x >= 1")
    t = intro(s)
    assert t.goal == p("x >= 1")
    assert t.hypotheses[-1].label == "intro1"
    assert t.hypotheses[-1].selected
    # fresh numbering avoids collisions
    u = intro(Sequent(t.hypotheses, p("x = 2 => x >= 2")))
    assert u.hypotheses[-1].label == "intro2"


def test_split_conjunction():
    s = seq([], "x = 1 & x <= 2")
    a, b = split_conjunction(s)
    assert a.goal == p("x = 1") and b.goal == p("x <= 2")
    assert split_conjunction(seq([], "x = 1")) is None


def test_tactic_select_adds_to_selection():
    s = Sequent(
        (
            Hypothesis("h1", p("x = 1"), selected=True),
            Hypothesis("h2", p("y = 2"), selected=False),
        ),
        p("x + y = 3"),
    )
    t = tactic_select(s, "h2")
    assert set(t.selected_labels()) == {"h1", "h2"}
    assert tactic_select(s, "nosuch") is None


def test_tactic_select_idempotent():
    s = seq(["x = 1", "y = 2"], "x + y = 3", selected=False)
    once = tactic_select(s, "h1")
    assert tactic_select(once, "h1") == once


def test_tactic_lasso_reaches_fixpoint():
    s = Sequent(
        (
            Hypothesis("h1", p("a = b")),
            Hypothesis("h2", p("b = c")),
            Hypothesis("h3", p("d = 0")),
        ),
        p("a >= 0"),
    )
    t, added = tactic_lasso(s)
    # h2 joins through h1 even though it shares nothing with the goal
    assert added == 2
    assert set(t.selected_labels()) == {"h1", "h2"}
    again, more = tactic_lasso(t)
    assert more == 0 and again == t


def test_tactic_lasso_selects_conditioned_invariant():
    model, _ = load_model(FIXTURES / "hypSel0.ebh")
    po = generate(model).get("set/hypSel0_1/INV")
    widened, added = tactic_lasso(po.sequent)
    # hypSel0_1 is already selected as the target invariant; only the
    # conditioned invariant joins
    assert added == 1
    sel = set(widened.selected_labels())
    assert "hypSel0_2" in sel and "hypSel0_1" in sel


def test_tactic_cut_side_and_main():
    s = Sequent((Hypothesis("h1", p("x in {1, 2}"), selected=True),), p("x + 1 >= 2"))
    side, main = tactic_cut(s, p("x >= 1"))
    assert side.goal == p("x >= 1")
    assert side.hypotheses == s.hypotheses
    cut_hyp = main.get("cut1")
    assert cut_hyp is not None and cut_hyp.selected
    assert main.goal == s.goal
    # both pieces close under the default decision core
    assert decide(tuple(h.predicate for h in side.hypotheses if h.selected), side.goal).status == PROVED
    assert decide(tuple(h.predicate for h in main.hypotheses if h.selected), main.goal).status == PROVED


def test_tactic_cut_existing_hypothesis_closes_side():
    s = Sequent((Hypothesis("h1", p("x >= 1"), selected=True),), p("x >= 0"))
    side, _main = tactic_cut(s, p("x >= 1"))
    assert any(h.selected and h.predicate == side.goal for h in side.hypotheses)


def test_tactic_cut_false_on_inconsistent_hypotheses():
    s = seq(["x <= 0", "x >= 1"], "y = 99")
    side, main = tactic_cut(s, p("1 = 0"))
    assert decide(tuple(h.predicate for h in side.hypotheses), side.goal).status == PROVED
    assert decide(tuple(h.predicate for h in main.hypotheses), main.goal).status == PROVED


def test_tactic_cut_fresh_label():
    s = Sequent((Hypothesis("cut1", p("x = 1")),), p("x = 1"))
    _side, main = tactic_cut(s, p("x >= 1"))
    assert main.get("cut2") is not None


def test_fresh_label_spellings():
    s = Sequent(
        (Hypothesis("intro1", p("x = 0")), Hypothesis("case+", p("x = 0"))),
        p("x = 1 => x >= 1"),
    )
    assert intro(s).hypotheses[-1].label == "intro2"
    assert tactic_cut(s, p("x >= 0"))[1].hypotheses[-1].label == "cut1"
    pos, neg = case_sequents(s, p("x = 1"))
    assert (pos.hypotheses[-1].label, neg.hypotheses[-1].label) == ("case+'", "case-")


# --- property tests -------------------------------------------------------------


@settings(max_examples=75, deadline=None)
@given(sequents())
def test_decide_sound_against_grid(s):
    hyps = tuple(h.predicate for h in s.hypotheses if h.selected)
    d = decide(hyps, s.goal)
    if d.status == PROVED:
        assert grid_counterexample(hyps, s.goal) is None
    if d.counterexample is not None:
        assert holds_at(hyps, s.goal, dict(d.counterexample))


@settings(max_examples=50, deadline=None)
@given(sequents(), st.integers(0, 5))
def test_decide_monotone_in_hypotheses(s, k):
    hyps = tuple(h.predicate for h in s.hypotheses if h.selected)
    extra = tuple(h.predicate for h in s.hypotheses if not h.selected)
    if decide(hyps, s.goal).status == PROVED:
        more = hyps + extra[: k % (len(extra) + 1)]
        assert decide(more, s.goal).status == PROVED


@settings(max_examples=50, deadline=None)
@given(sequents())
def test_case_split_sound_against_grid(s):
    rng = random.Random(42)
    pred = p(f"a = {rng.randint(-2, 2)}")
    pos, neg = case_sequents(s, pred)

    def proved(child):
        hyps = tuple(h.predicate for h in child.hypotheses if h.selected)
        return decide(hyps, child.goal).status == PROVED

    if proved(pos) and proved(neg):
        all_hyps = tuple(h.predicate for h in s.hypotheses)
        assert grid_counterexample(all_hyps, s.goal) is None


@settings(max_examples=50, deadline=None)
@given(sequents())
def test_lasso_idempotent_property(s):
    once, _ = tactic_lasso(s)
    twice, added = tactic_lasso(once)
    assert added == 0 and twice == once


# --- prove_obligation ------------------------------------------------------------


def hinted_po(name="set/hypSel0_1/INV"):
    model, _ = load_model(FIXTURES / "hypSel0.ebh")
    return generate(model).get(name)


def test_prove_obligation_applies_its_hint():
    po = hinted_po()
    bare = prove_obligation(replace(po, hint=None))
    assert bare.status == UNPROVED
    assert bare.counterexample is not None
    hinted = prove_obligation(po)
    assert hinted.status == PROVED
    assert hinted.hint_applied == "use hypSel0_2 for hypSel0_1"
    assert any(step.tactic == "tacticSelect" for step in hinted.trace)
    assert "hypSel0_2" in hinted.selected_labels


def test_prove_obligation_without_a_hint_for_its_target():
    po = hinted_po("set/hypSel0_2/INV")
    assert po.hint is None
    result = prove_obligation(po)
    assert result.status == PROVED
    assert result.hint_applied is None


def test_prove_obligation_options_are_keyword_only():
    with pytest.raises(TypeError):
        prove_obligation(hinted_po(), ProveOptions())


def test_prove_obligation_case_hint_trace():
    model, _ = load_model(FIXTURES / "case0.ebh")
    poset = generate(model)
    po = poset.get("set/case0_1/INV")
    result = prove_obligation(po)
    assert result.status == PROVED
    step = next(s for s in result.trace if s.tactic == "tacticCase")
    assert "2 subgoals" in step.detail


def test_prove_obligation_all_hyps_option():
    po = replace(hinted_po(), hint=None)  # the option alone proves it
    result = prove_obligation(po, options=ProveOptions(all_hyps=True))
    assert result.status == PROVED
    assert "selectAll" in {s.tactic for s in result.trace}


def test_prove_obligation_lasso_option():
    po = replace(hinted_po(), hint=None)  # the option alone proves it
    result = prove_obligation(po, options=ProveOptions(lasso=True))
    assert result.status == PROVED


def test_prove_obligation_aggregates_worst_status(tmp_path):
    src = (
        "machine m\nvariables x\ninvariants\n"
        "  i1: x in NAT & x <= 9\nevents\n  event e\n  then\n    a1: x := x - 1\n  end\nend\n"
    )
    f = tmp_path / "m.ebh"
    f.write_text(src)
    model, _ = load_model(f)
    po = generate(model).get("e/i1/INV")
    result = prove_obligation(po)
    # the conjunction splits; x' >= 0 fails while x' <= 9 holds
    assert result.status == UNPROVED


# --- seeded bulk run mirroring the acceptance generator -------------------------


def test_random_sequents_never_crash_decide():
    rng = random.Random(11)
    for _ in range(100):
        s = random_sequent(rng)
        hyps = tuple(h.predicate for h in s.hypotheses if h.selected)
        d = decide(hyps, s.goal)
        assert d.status in {PROVED, UNPROVED, UNSUPPORTED}
