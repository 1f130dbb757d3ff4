"""Proof obligation generation.

Builds the obligation set for a machine: invariant preservation (INV),
theorems (THM), and for refinements guard strengthening (GRD), action
simulation (SIM), witness feasibility (WFIS) and merge correctness
(MRG).  Every obligation is named after its origin:
``{event or owner}/{label}/{KIND}``, or ``{event}/MRG`` for a merge,
which has no label; the owner is the machine or context.  A theorem is
proved from what precedes it plus the theorems stated before it.  One
`generate` call builds what depends only on the model once
(the two fact tuples, for the initialisation and for other events, and
each invariant primed once per primed-name set) and what depends only
on an event once per event (its guard, before-after and witness
hypotheses, `_EventHyps`); an INV obligation selects its invariant by
position and carries the first hint of its event that targets that
invariant.  Nothing outlives the call.  Also hosts the hint interpreter
(`apply_hint`), which the prover runs as a tactic and `apply_hints_pog`
runs to rewrite the obligations ahead of proving, and the normalisation
step used when exporting sequents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .diagnostics import Diagnostic
from .formula import (
    Comparison,
    Ident,
    Membership,
    Not,
    Predicate,
    Quantifier,
    conjunction,
    disjunction,
    free_identifiers,
    prime,
    substitute,
)
from .model import (
    DETERMINISTIC,
    Event,
    Hint,
    Hypothesis,
    KIND_GRD,
    KIND_INV,
    KIND_MRG,
    KIND_SIM,
    KIND_THM,
    KIND_WFIS,
    LabeledPredicate,
    MEMBER_OF,
    Model,
    Origin,
    PoSet,
    ProofObligation,
    Sequent,
    USE_HYPOTHESIS,
)
from .printer import print_hint


@dataclass(frozen=True)
class BaConjunct:
    """One conjunct of an event's before-after predicate.

    ``action_label`` is None for frame conjuncts (variables the event
    does not assign).
    """

    label: str
    predicate: Predicate
    variables: tuple[str, ...]
    action_label: str | None = None


def before_after(event: Event, variables: tuple[str, ...]) -> tuple[BaConjunct, ...]:
    """The before-after predicate of an event, one conjunct per variable
    in declaration order; a multi-target suchThat action yields a single
    conjunct at the position of its first target."""
    by_target: dict[str, object] = {}
    for a in event.actions:
        for t in a.targets:
            by_target[t] = a
    out: list[BaConjunct] = []
    emitted: set[str] = set()
    for v in variables:
        a = by_target.get(v)
        if a is None:
            out.append(
                BaConjunct("BA:" + v, Comparison("=", Ident(v, primed=True), Ident(v)), (v,))
            )
            continue
        if a.label in emitted:
            continue
        emitted.add(a.label)
        label = "BA:" + ",".join(a.targets)
        if a.kind == DETERMINISTIC:
            pred: Predicate = Comparison("=", Ident(a.targets[0], primed=True), a.rhs)
        elif a.kind == MEMBER_OF:
            pred = Membership(Ident(a.targets[0], primed=True), a.rhs)
        else:
            pred = a.rhs
        out.append(BaConjunct(label, pred, a.targets, a.label))
    return tuple(out)


# --- hypothesis assembly -----------------------------------------------------


def _hyps(facts: Iterable[LabeledPredicate], selected: bool = False) -> tuple[Hypothesis, ...]:
    return tuple(Hypothesis(f.label, f.predicate, selected) for f in facts)


def _ba_hyps(model: Model, event: Event) -> tuple[Hypothesis, ...]:
    hyps = [
        Hypothesis(c.label, c.predicate, selected=True)
        for c in before_after(event, model.machine.variables)
    ]
    if model.abstract is not None and not event.refines and not event.is_initialisation:
        # A new event leaves the abstract state alone: frame conjuncts
        # for disappearing variables stand in for the missing witnesses.
        hyps += (
            Hypothesis("BA:" + v, Comparison("=", Ident(v, primed=True), Ident(v)), selected=True)
            for v in model.disappearing_variables()
        )
    return tuple(hyps)


class _EventHyps(NamedTuple):
    """An event's hypothesis groups, shared by all its obligations."""

    facts: tuple[Hypothesis, ...]  # visible facts, unselected
    guards: tuple[Hypothesis, ...]  # guards, then guard theorems
    ba: tuple[Hypothesis, ...]
    witnesses: tuple[Hypothesis, ...]


def _label_positions(hyps: tuple[Hypothesis, ...]) -> dict[str, list[int]]:
    where: dict[str, list[int]] = {}
    for i, h in enumerate(hyps):
        where.setdefault(h.label, []).append(i)
    return where


def _select_at(hyps: tuple[Hypothesis, ...], positions: Iterable[int]) -> tuple[Hypothesis, ...]:
    """``hyps`` with those at ``positions`` selected; at the positions of
    a label (`_label_positions`) this is `Sequent.select` of it."""
    out = list(hyps)
    for i in positions:
        h = out[i]
        if not h.selected:
            out[i] = Hypothesis(h.label, h.predicate, selected=True)
    return tuple(out)


# --- obligation families -----------------------------------------------------


def _po(
    kind: str, origin: Origin, hypotheses: tuple[Hypothesis, ...], goal: Predicate, hint: Hint | None = None
) -> ProofObligation:
    """The obligation named after its origin: ``{event or owner}/{label}/{KIND}``,
    or ``{event}/{KIND}`` when there is no label."""
    owner = origin.event or origin.machine
    name = f"{owner}/{kind}" if origin.label is None else f"{owner}/{origin.label}/{kind}"
    return ProofObligation(name, kind, Sequent(hypotheses, goal), origin, hint=hint)


def _theorem_pos(
    before: tuple[Hypothesis, ...], theorems: tuple[LabeledPredicate, ...], origin: Origin
) -> list[ProofObligation]:
    """Theorem i is proved from ``before`` plus theorems 0..i-1, all selected."""
    hyps = before + _hyps(theorems, True)
    return [
        _po(KIND_THM, replace(origin, label=th.label), hyps[: len(before) + i], th.predicate)
        for i, th in enumerate(theorems)
    ]


def _merge_po(model: Model, event: Event, hyps: _EventHyps) -> ProofObligation:
    abstract_events = [model.abstract_event(r) for r in event.refines]
    goal = disjunction(
        tuple(conjunction(tuple(g.predicate for g in ae.guards)) for ae in abstract_events if ae)
    )
    return _po(KIND_MRG, Origin(model.machine.name, event.name), hyps.facts + hyps.guards, goal)


def _guard_strengthening_pos(model: Model, event: Event, hyps: _EventHyps) -> list[ProofObligation]:
    ae = model.abstract_event(event.refines[0])
    if ae is None:
        return []
    parameter_witnesses = tuple(
        h for h, w in zip(hyps.witnesses, event.witnesses) if not w.subject.primed
    )
    seq_hyps = hyps.facts + hyps.guards + parameter_witnesses
    return [
        _po(KIND_GRD, Origin(model.machine.name, event.name, g.label), seq_hyps, g.predicate)
        for g in ae.guards
    ]


def _wfis_pos(model: Model, event: Event, hyps: _EventHyps) -> list[ProofObligation]:
    pre = hyps.facts + hyps.guards
    post = pre + hyps.ba
    return [
        _po(
            KIND_WFIS,
            Origin(model.machine.name, event.name, w.subject.key),
            post if w.subject.primed else pre,
            Quantifier("exists", (w.subject,), w.predicate),
        )
        for w in event.witnesses
    ]


def _simulation_pos(model: Model, event: Event, hyps: _EventHyps) -> list[ProofObligation]:
    ae = model.abstract_event(event.refines[0])
    if ae is None or model.abstract is None:
        return []
    seq_hyps = hyps.facts + hyps.guards + hyps.ba + hyps.witnesses
    return [
        _po(KIND_SIM, Origin(model.machine.name, event.name, c.action_label or c.label), seq_hyps, c.predicate)
        for c in before_after(ae, model.abstract.machine.variables)
    ]


def _invariant_pos(model: Model, event: Event, hyps: _EventHyps, goals: tuple[Predicate, ...]) -> list[ProofObligation]:
    """One obligation per invariant, its primed form in ``goals``, with the
    event's first hint that targets it; outside the initialisation each
    selects its invariant."""
    m = model.machine
    seq_hyps = hyps.facts + hyps.guards + hyps.ba + hyps.witnesses
    where = {} if event.is_initialisation else _label_positions(seq_hyps)
    hints = {h.target: h for h in reversed(event.hints)}  # the first hint of a target wins
    return [
        _po(
            KIND_INV,
            Origin(m.name, event.name, inv.label),
            _select_at(seq_hyps, where.get(inv.label, ())),
            goal,
            hints.get(inv.label),
        )
        for inv, goal in zip(m.invariants, goals)
    ]


def generate(model: Model) -> PoSet:
    """All proof obligations for the model's machine, in a fixed order.

    Each INV obligation carries its hint unapplied; `apply_hint` applies
    it, either through `apply_hints_pog` or as a tactic of the prover.
    """
    m = model.machine
    facts = _hyps(model.visible_facts())
    init_facts = _hyps(model.context_axioms() + model.context_theorems())  # no pre-state
    pos: list[ProofObligation] = []
    before: tuple[Hypothesis, ...] = ()
    for ctx in model.contexts:  # each context sees the axioms and theorems of its chain so far
        before += _hyps(ctx.axioms, True)
        pos.extend(_theorem_pos(before, ctx.theorems, Origin(ctx.name)))
        before += _hyps(ctx.theorems, True)
    selected = _hyps(model.visible_facts(), True)  # these end in the machine's theorems
    pos.extend(_theorem_pos(selected[: len(selected) - len(m.theorems)], m.theorems, Origin(m.name)))
    state = set(m.variables)
    init_goals = tuple(prime(inv.predicate, state) for inv in m.invariants)
    refined = state | set(model.abstract_variables())
    goals = init_goals if refined == state else tuple(prime(inv.predicate, refined) for inv in m.invariants)
    for event in ((m.initialisation,) if m.initialisation else ()) + m.events:
        init = event.is_initialisation
        hyps = _EventHyps(
            init_facts if init else facts,
            _hyps(event.guards + event.guard_theorems, True),
            _ba_hyps(model, event),
            tuple(Hypothesis(w.subject.key, w.predicate, selected=True) for w in event.witnesses),
        )
        if event.guard_theorems:  # proved from the facts and the guards, all selected
            facts_and_guards = _select_at(hyps.facts, range(len(hyps.facts))) + hyps.guards[: len(event.guards)]
            pos.extend(_theorem_pos(facts_and_guards, event.guard_theorems, Origin(m.name, event.name)))
        if len(event.refines) >= 2:
            pos.append(_merge_po(model, event, hyps))
        elif len(event.refines) == 1:
            pos.extend(_guard_strengthening_pos(model, event, hyps))
        pos.extend(_wfis_pos(model, event, hyps))
        if event.refines:
            pos.extend(_simulation_pos(model, event, hyps))
        pos.extend(_invariant_pos(model, event, hyps, init_goals if init else goals))
    return PoSet(m.name, tuple(pos))


# --- hint application ---------------------------------------------------------


def tactic_select(sequent: Sequent, label: str) -> Sequent | None:
    if sequent.get(label) is None:
        return None
    return sequent.select({label})


def case_sequents(sequent: Sequent, predicate: Predicate) -> tuple[Sequent, Sequent]:
    """Split a sequent on a case predicate.

    Both results additionally select every hypothesis sharing an
    identifier with the predicate, then one gains the predicate as
    hypothesis ``case+`` and the other its negation as ``case-``.
    """
    shared = free_identifiers(predicate)
    hyps = tuple(
        h if h.selected or not (free_identifiers(h.predicate) & shared) else replace(h, selected=True)
        for h in sequent.hypotheses
    )
    pos = Hypothesis(sequent.fresh_label("case+", primed=True), predicate, selected=True)
    neg = Hypothesis(sequent.fresh_label("case-", primed=True), Not(predicate), selected=True)
    return (
        Sequent(hyps + (pos,), sequent.goal),
        Sequent(hyps + (neg,), sequent.goal),
    )


def apply_hint(sequent: Sequent, hint: Hint) -> tuple[Sequent, ...] | None:
    """The sequents that replace ``sequent`` under a hint: a use hint
    widens the selection by its label (`tactic_select`), a split hint
    gives the two `case_sequents`.  None when the used label is not a
    hypothesis."""
    if hint.kind == USE_HYPOTHESIS:
        assert hint.label is not None
        selected = tactic_select(sequent, hint.label)
        return None if selected is None else (selected,)
    assert hint.predicate is not None
    return case_sequents(sequent, hint.predicate)


def apply_hints_pog(poset: PoSet) -> tuple[PoSet, list[Diagnostic]]:
    """Rewrite each obligation by its hint (see `apply_hint`), leaving
    none with a hint; a split obligation is replaced by its case
    children ``/case1`` and ``/case2``."""
    out: list[ProofObligation] = []
    diags: list[Diagnostic] = []
    for po in poset.obligations:
        hint = po.hint
        if hint is None:
            out.append(po)
            continue
        sequents = apply_hint(po.sequent, hint)
        if sequents is None:
            diags.append(
                Diagnostic(
                    "unresolved-hint-label",
                    f"hint label {hint.label!r} is not a hypothesis of {po.name}",
                    hint.loc,
                )
            )
            out.append(replace(po, hint=None))
        elif len(sequents) == 1:
            out.append(replace(po, sequent=sequents[0], hint_applied=print_hint(hint), hint=None))
        else:
            for suffix, seq in zip(("/case1", "/case2"), sequents):
                out.append(ProofObligation(po.name + suffix, po.kind, seq, po.origin, print_hint(hint)))
    return PoSet(poset.source_machine, tuple(out)), diags


# --- misc --------------------------------------------------------------------


def normalize_deterministic_ba(sequent: Sequent) -> Sequent:
    """Inline deterministic before-after equations.

    Every ``BA:`` hypothesis of the shape ``x' = E`` with prime-free
    ``E`` is substituted into the rest of the sequent and dropped.
    """
    hyps = list(sequent.hypotheses)
    goal = sequent.goal
    changed = True
    while changed:
        changed = False
        for i, h in enumerate(hyps):
            if not h.label.startswith("BA:"):
                continue
            p = h.predicate
            if not (
                isinstance(p, Comparison)
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


def check_new_events(model: Model) -> list[Diagnostic]:
    """New events of a refinement must not assign variables that the
    abstract machine also declares."""
    diags: list[Diagnostic] = []
    if model.abstract is None:
        return diags
    abstract_vars = set(model.abstract.machine.variables)
    for e in model.machine.events:
        if e.refines:
            continue
        for v in e.assigned_variables():
            if v in abstract_vars:
                diags.append(
                    Diagnostic(
                        "new-event-assigns-abstract",
                        f"new event {e.name!r} assigns abstract variable {v!r}",
                        e.loc,
                    )
                )
    return diags
