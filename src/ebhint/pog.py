"""Proof obligation generation.

Builds the obligation set for a machine: invariant preservation (INV),
theorems (THM), and for refinements guard strengthening (GRD), action
simulation (SIM), witness feasibility (WFIS) and merge correctness
(MRG).  Every obligation is named ``{owner}/{label}/{KIND}``, or
``{event}/MRG`` for a merge, which has no label; the owner is the
event, or the machine or context for its own theorems.  A theorem is
proved from what precedes it plus the theorems stated before it.  One
`generate` call builds what depends only on the model once
(the two fact tuples, for the initialisation and for other events, and
each invariant primed once per primed-name set) and what depends only
on an event once per event (its guard, before-after and witness
hypotheses, `_EventHyps`); an INV obligation selects its invariant by
position and carries the first hint of its event that targets that
invariant.  Nothing outlives the call.  Given an owner, `generate`
builds only the obligations named ``{owner}/...``, which is how
`export-smt` prints one obligation without building the others.
`prover` applies the hints.  Last, the BA normalisation that
`export-smt` uses.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .formula import (
    Comparison,
    Formula,
    Ident,
    Membership,
    Predicate,
    Quantifier,
    conjunction,
    disjunction,
    free_identifiers,
    prime,
    substitute,
    walk,
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
    PoSet,
    ProofObligation,
    Sequent,
)
from .record import record


@record
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
    variables = model.machine.variables
    if model.abstract is not None and not event.refines and not event.is_initialisation:
        # A new event leaves the abstract state alone: frame conjuncts
        # for disappearing variables stand in for the missing witnesses.
        variables += model.disappearing_variables()
    return tuple(Hypothesis(c.label, c.predicate, selected=True) for c in before_after(event, variables))


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
    kind: str, owner: str, label: str | None, hypotheses: tuple[Hypothesis, ...], goal: Predicate, hint: Hint | None = None
) -> ProofObligation:
    """The obligation ``{owner}/{label}/{KIND}``, or ``{owner}/{KIND}``
    when there is no label."""
    name = f"{owner}/{kind}" if label is None else f"{owner}/{label}/{kind}"
    return ProofObligation(name, kind, Sequent(hypotheses, goal), hint=hint)


def _theorem_pos(
    before: tuple[Hypothesis, ...], theorems: tuple[LabeledPredicate, ...], owner: str
) -> list[ProofObligation]:
    """Theorem i is proved from ``before`` plus theorems 0..i-1, all selected."""
    hyps = before + _hyps(theorems, True)
    return [_po(KIND_THM, owner, th.label, hyps[: len(before) + i], th.predicate) for i, th in enumerate(theorems)]


def _merge_po(model: Model, event: Event, hyps: _EventHyps) -> ProofObligation:
    abstract_events = [model.abstract_event(r) for r in event.refines]
    goal = disjunction(
        tuple(conjunction(tuple(g.predicate for g in ae.guards)) for ae in abstract_events if ae)
    )
    return _po(KIND_MRG, event.name, None, hyps.facts + hyps.guards, goal)


def _guard_strengthening_pos(model: Model, event: Event, hyps: _EventHyps) -> list[ProofObligation]:
    ae = model.abstract_event(event.refines[0])
    if ae is None:
        return []
    parameter_witnesses = tuple(
        h for h, w in zip(hyps.witnesses, event.witnesses) if not w.subject.primed
    )
    seq_hyps = hyps.facts + hyps.guards + parameter_witnesses
    return [_po(KIND_GRD, event.name, g.label, seq_hyps, g.predicate) for g in ae.guards]


def _wfis_pos(event: Event, hyps: _EventHyps) -> list[ProofObligation]:
    pre = hyps.facts + hyps.guards
    post = pre + hyps.ba
    return [
        _po(
            KIND_WFIS,
            event.name,
            w.subject.key,
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
        _po(KIND_SIM, event.name, c.action_label or c.label, seq_hyps, c.predicate)
        for c in before_after(ae, model.abstract.machine.variables)
    ]


def _invariant_pos(model: Model, event: Event, hyps: _EventHyps, goals: tuple[Predicate, ...]) -> list[ProofObligation]:
    """One obligation per invariant, its primed form in ``goals``, with the
    event's first hint that targets it; outside the initialisation each
    selects its invariant."""
    seq_hyps = hyps.facts + hyps.guards + hyps.ba + hyps.witnesses
    where = {} if event.is_initialisation else _label_positions(seq_hyps)
    hints = {h.target: h for h in reversed(event.hints)}  # the first hint of a target wins
    return [
        _po(
            KIND_INV,
            event.name,
            inv.label,
            _select_at(seq_hyps, where.get(inv.label, ())),
            goal,
            hints.get(inv.label),
        )
        for inv, goal in zip(model.machine.invariants, goals)
    ]


def generate(model: Model, owner: str | None = None) -> PoSet:
    """All proof obligations for the model's machine, in a fixed order.

    With ``owner``, only the obligations whose name starts with
    ``{owner}/`` (identifiers hold no ``/``, so ``owner`` is
    ``name.partition("/")[0]``): the theorems of the context or the
    machine of that name and the obligations of the events of that
    name, as and in the order the full set has them.  Each INV obligation
    carries its hint unapplied; `prover.apply_hint` applies it.
    """
    m = model.machine
    facts = _hyps(model.visible_facts())
    init_facts = _hyps(model.context_axioms() + model.context_theorems())  # no pre-state
    pos: list[ProofObligation] = []
    before: tuple[Hypothesis, ...] = ()
    for ctx in model.contexts:  # each context sees the axioms and theorems of its chain so far
        before += _hyps(ctx.axioms, True)
        if owner in (None, ctx.name):
            pos.extend(_theorem_pos(before, ctx.theorems, ctx.name))
        before += _hyps(ctx.theorems, True)
    if owner in (None, m.name):
        selected = _hyps(model.visible_facts(), True)  # these end in the machine's theorems
        pos.extend(_theorem_pos(selected[: len(selected) - len(m.theorems)], m.theorems, m.name))
    state = set(m.variables)
    init_goals = tuple(prime(inv.predicate, state) for inv in m.invariants)
    refined = state | set(model.abstract_variables())
    goals = init_goals if refined == state else tuple(prime(inv.predicate, refined) for inv in m.invariants)
    for event in ((m.initialisation,) if m.initialisation else ()) + m.events:
        if owner not in (None, event.name):
            continue
        init = event.is_initialisation
        hyps = _EventHyps(
            init_facts if init else facts,
            _hyps(event.guards + event.guard_theorems, True),
            _ba_hyps(model, event),
            tuple(Hypothesis(w.subject.key, w.predicate, selected=True) for w in event.witnesses),
        )
        if event.guard_theorems:  # proved from the facts and the guards, all selected
            facts_and_guards = _select_at(hyps.facts, range(len(hyps.facts))) + hyps.guards[: len(event.guards)]
            pos.extend(_theorem_pos(facts_and_guards, event.guard_theorems, event.name))
        if len(event.refines) >= 2:
            pos.append(_merge_po(model, event, hyps))
        elif len(event.refines) == 1:
            pos.extend(_guard_strengthening_pos(model, event, hyps))
        pos.extend(_wfis_pos(event, hyps))
        if event.refines:
            pos.extend(_simulation_pos(model, event, hyps))
        pos.extend(_invariant_pos(model, event, hyps, init_goals if init else goals))
    return PoSet(m.name, tuple(pos))


# --- misc --------------------------------------------------------------------


def _ba_equation(h: Hypothesis) -> Comparison | None:
    """The predicate of a ``BA:`` hypothesis of the shape ``x' = E``."""
    p = h.predicate
    if (
        h.label.startswith("BA:")
        and isinstance(p, Comparison)
        and p.op == "="
        and isinstance(p.left, Ident)
        and p.left.primed
    ):
        return p
    return None


def normalize_deterministic_ba(sequent: Sequent) -> Sequent:
    """Inline deterministic before-after equations: take the first
    ``BA:`` hypothesis ``x' = E`` whose ``E`` is prime-free, substitute
    it into the rest of the sequent, drop it, and scan again.  An ``E``
    may become prime-free on the way; a later equation of a name taken
    becomes ``E1 = E2``.

    The replacements go in together, except when a quantifier binds a
    name that one of them holds: capture renaming then picks names that
    depend on the order, so they go in one at a time, in the order taken.
    """
    hyps = sequent.hypotheses
    waiting = [
        (i, p, {k for k in free_identifiers(p.right) if k.endswith("'")})
        for i, h in enumerate(hyps)
        if (p := _ba_equation(h))
    ]
    taken: dict[str, Formula] = {}  # x' -> prime-free E, in the order taken
    dropped: set[int] = set()
    while ready := next(((i, p, primed) for i, p, primed in waiting if primed <= taken.keys()), None):
        i, p, primed = ready
        taken[p.left.key] = substitute(p.right, taken) if primed else p.right
        dropped.add(i)
        waiting = [e for e in waiting if e[1].left.key not in taken]
    rest = [h for i, h in enumerate(hyps) if i not in dropped]
    held = {k for e in taken.values() for k in free_identifiers(e)}
    captures = any(
        b.key in held
        for f in (sequent.goal, *(h.predicate for h in rest))
        for q in walk(f)
        if isinstance(q, Quantifier)
        for b in q.binders
    )
    goal = sequent.goal
    for mapping in [{k: e} for k, e in taken.items()] if captures else [taken]:
        rest = [Hypothesis(h.label, substitute(h.predicate, mapping), h.selected) for h in rest]
        goal = substitute(goal, mapping)
    return Sequent(tuple(rest), goal)
