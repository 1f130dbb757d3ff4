"""Acceptance suite: one test per shipping criterion.

Each test carries its tolerance (exact statuses, counts, or a runtime
budget) in its assertions; `pytest -v` then reads as a checklist.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import FIXTURE_FILES, FIXTURES, run_cli, statuses_from
from ebhint.model import Model
from ebhint.parser import load_model, parse_predicate
from ebhint.pog import generate, normalize_deterministic_ba
from ebhint.printer import pretty_print
from ebhint.prover import (
    PROVED,
    UNPROVED,
    apply_hints_pog,
    decide,
    prove_obligation,
    tactic_lasso,
    tactic_select,
    worst_status,
)
from ebhint.record import replace
from oracle import grid_counterexample, holds_at
from strategies import (
    random_machine_source,
    random_sequent,
    random_witness_source,
)


def load(name: str) -> Model:
    model, diags = load_model(FIXTURES / name)
    assert diags == [], diags
    return model


def test_criterion_1_fixture_corpus_checks_clean():
    start = time.perf_counter()
    for name in FIXTURE_FILES:
        result = run_cli("check", str(FIXTURES / name))
        assert result.exit_code == 0, f"{name}: {result.output}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"corpus check took {elapsed:.2f}s"


def test_criterion_2_displayed_sequents_reproduced():
    po = generate(load("hypSel0.ebh")).get("set/hypSel0_1/INV")
    seq = normalize_deterministic_ba(po.sequent)
    expected_hyps = {
        parse_predicate("x in NAT"),
        parse_predicate("x /= 0 => y in NAT"),
        parse_predicate("x in {1, 2}"),
    }
    assert {h.predicate for h in seq.hypotheses} == expected_hyps
    assert len(seq.hypotheses) == len(expected_hyps)
    assert seq.goal == parse_predicate("y + 1 in NAT")

    po = generate(load("case0.ebh")).get("set/case0_1/INV")
    seq = normalize_deterministic_ba(po.sequent)
    expected_hyps = {
        parse_predicate("A <= C"),
        parse_predicate("A /= 1 => B = A + 1"),
        parse_predicate("A = 1 => B <= C"),
    }
    assert {h.predicate for h in seq.hypotheses} == expected_hyps
    assert len(seq.hypotheses) == len(expected_hyps)
    assert seq.goal == parse_predicate("B - 1 <= C")


def test_criterion_3_hints_flip_the_verdict(tmp_path):
    targets = {"hypSel0.ebh": "set/hypSel0_1/INV", "case0.ebh": "set/case0_1/INV"}

    # stripped of hints, the pilot obligations are out of reach
    for name, target in targets.items():
        stripped = tmp_path / name
        stripped.write_text(pretty_print(load(name).machine.without_hints()))
        result = run_cli("prove", str(stripped))
        assert result.exit_code == 1
        assert statuses_from(result.output)[target] == "unproved", name

    # with hints, both machines prove completely in both modes
    for name in targets:
        for mode in ("tactic", "pog"):
            start = time.perf_counter()
            result = run_cli("prove", str(FIXTURES / name), "--hint-mode", mode)
            elapsed = time.perf_counter() - start
            assert result.exit_code == 0, f"{name} {mode}: {result.output}"
            statuses = statuses_from(result.output)
            assert statuses and set(statuses.values()) == {"proved"}
            assert elapsed < 1.0, f"{name} {mode} took {elapsed:.2f}s"


def _aggregated_verdicts(model: Model, mode: str) -> dict[str, str]:
    poset = generate(model)
    if mode == "pog":
        poset, diags = apply_hints_pog(poset)
        assert diags == []

    per_root: dict[str, list[str]] = {}
    for po in poset.obligations:
        result = prove_obligation(po)
        root = po.name
        for suffix in ("/case1", "/case2"):
            if root.endswith(suffix):
                root = root[: -len(suffix)]
        per_root.setdefault(root, []).append(result.status)
    return {root: worst_status(statuses) for root, statuses in per_root.items()}


def test_criterion_4_hint_modes_agree_per_root_obligation():
    for name in FIXTURE_FILES:
        tactic = _aggregated_verdicts(load(name), "tactic")
        pog = _aggregated_verdicts(load(name), "pog")
        assert tactic == pog, name


def test_criterion_4_covers_initialisation_hints(init_split_model):
    model, diags = load_model(init_split_model)
    assert diags == []
    expected = {"INITIALISATION/i1/INV": "proved"}
    assert _aggregated_verdicts(model, "tactic") == expected
    assert _aggregated_verdicts(model, "pog") == expected
    # the split hint is what proves it
    bare = replace(model, machine=model.machine.without_hints())
    assert _aggregated_verdicts(bare, "tactic") == {"INITIALISATION/i1/INV": "unproved"}


def test_criterion_5_workaround_merge_and_split():
    # the theorem-in-guard workaround proves completely under defaults
    result = run_cli("prove", str(FIXTURES / "hypSel0_workaround.ebh"))
    assert result.exit_code == 0
    statuses = statuses_from(result.output)
    assert statuses["set/thm1/THM"] == "proved"
    assert set(statuses.values()) == {"proved"}

    # the merge obligation is trivial: proved under defaults
    result = run_cli("prove", str(FIXTURES / "case0_merge.ebh"))
    assert statuses_from(result.output)["set/MRG"] == "proved"

    # the split machine: documented divergence without lasso...
    result = run_cli("prove", str(FIXTURES / "case0_abstract.ebh"))
    assert result.exit_code == 1
    unproved = {n for n, s in statuses_from(result.output).items() if s == "unproved"}
    assert unproved == {
        "set_case1/case0_1/INV",
        "set_case2/case0_1/INV",
        "set_case2/case0_3/INV",
    }

    # ...and full closure with it
    result = run_cli("prove", str(FIXTURES / "case0_abstract.ebh"), "--lasso")
    assert result.exit_code == 0


def test_criterion_6_prover_sound_against_exhaustive_oracle():
    rng = random.Random(20240817)
    start = time.perf_counter()
    proved = examined = confirmed = 0
    for _ in range(500):
        s = random_sequent(rng)
        hyps = tuple(h.predicate for h in s.hypotheses)
        per_call = time.perf_counter() + 0.5
        d = decide(hyps, s.goal, deadline=per_call)
        examined += 1
        if d.status == PROVED:
            proved += 1
            assert grid_counterexample(hyps, s.goal) is None, (hyps, s.goal)
        if d.counterexample is not None:
            confirmed += 1
            assert holds_at(hyps, s.goal, dict(d.counterexample))
    elapsed = time.perf_counter() - start
    assert examined >= 500
    # the suite must actually exercise both outcomes
    assert proved >= 50, proved
    assert confirmed >= 50, confirmed
    assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s"


def test_criterion_7_selection_monotone_and_idempotent():
    rng = random.Random(4711)
    checked = 0
    for _ in range(200):
        s = random_sequent(rng)
        selected = tuple(h.predicate for h in s.hypotheses if h.selected)
        rest = [h for h in s.hypotheses if not h.selected]
        deadline = time.perf_counter() + 0.5
        if decide(selected, s.goal, deadline=deadline).status == PROVED:
            for extra in rest:
                widened = selected + (extra.predicate,)
                assert decide(widened, s.goal).status == PROVED, (s, extra)

        if s.hypotheses:
            label = rng.choice(s.hypotheses).label
            once = tactic_select(s, label)
            assert tactic_select(once, label) == once
        lonce, _ = tactic_lasso(s)
        ltwice, added = tactic_lasso(lonce)
        assert added == 0 and ltwice == lonce
        checked += 1
    assert checked == 200


def test_criterion_8_deterministic_witnesses_prove_wfis(tmp_path):
    rng = random.Random(88)
    for i in range(100):
        abstract, concrete, expr_text = random_witness_source(rng, i)
        (tmp_path / f"wabs{i}.ebh").write_text(abstract)
        conc_path = tmp_path / f"wcon{i}.ebh"
        conc_path.write_text(concrete)
        model, diags = load_model(conc_path)
        assert diags == [], (diags, concrete)
        poset = generate(model)
        wfis = [po for po in poset.obligations if po.kind == "WFIS"]
        assert len(wfis) == 1, concrete
        result = prove_obligation(wfis[0])
        assert result.status == PROVED, (expr_text, result.reason)


def test_criterion_9_po_counting_law():
    rng = random.Random(99)
    from ebhint.parser import parse_source

    for i in range(50):
        source, nevents, ninvs = random_machine_source(rng, i)
        machine = parse_source(source)
        poset = generate(Model(machine=machine))
        inv = [po for po in poset.obligations if po.kind == "INV"]
        assert len(inv) == nevents * ninvs, source

    # one splitCase hint in pog mode adds exactly one obligation
    model = load("case0.ebh")
    plain = generate(model)
    rewritten, diags = apply_hints_pog(plain)
    assert diags == []
    assert len(rewritten.obligations) == len(plain.obligations) + 1
