"""Model types: contexts, machines, events, hints, sequents, obligations.

Everything is an immutable record (see `ebhint.record`) holding tuples,
so models are safe to share and compare structurally.  Source locations,
of declared names too, and the file a loaded machine or context came
from are `position` fields: they never take part in equality, and
`replace` keeps them.
"""

from __future__ import annotations

from itertools import count, zip_longest
from typing import Iterator

from .formula import Formula, Ident, Loc, Predicate, numbered
from .record import position, record, replace

INITIALISATION = "INITIALISATION"


@record
class LabeledPredicate:
    label: str
    predicate: Predicate
    loc: Loc | None = position()


#: Assignment kinds.
DETERMINISTIC = "deterministic"
MEMBER_OF = "memberOf"
SUCH_THAT = "suchThat"
#: The operator of each assignment kind, the table that the parser and
#: the printer read.
ASSIGNMENT_OPERATORS = {DETERMINISTIC: ":=", MEMBER_OF: "::", SUCH_THAT: ":|"}


@record
class Assignment:
    """A labeled action.

    ``deterministic``  x := E        (one target, integer expression)
    ``memberOf``       x :: S        (one target, set expression)
    ``suchThat``       x, y :| P     (one or more targets, predicate over
                                      pre-state and primed targets)
    """

    label: str
    kind: str
    targets: tuple[str, ...]
    rhs: Formula
    loc: Loc | None = position()


@record
class Witness:
    """Links a disappearing abstract parameter or post-state variable to
    concrete terms.  The subject is an unprimed identifier for a
    parameter witness and a primed identifier for a variable witness."""

    subject: Ident
    predicate: Predicate
    loc: Loc | None = position()


#: Hint kinds.
USE_HYPOTHESIS = "useHypothesis"
SPLIT_CASE = "splitCase"


@record
class Hint:
    """A proof hint attached to an event.

    ``useHypothesis``: select hypothesis ``label`` when proving the
    preservation of invariant ``target``.
    ``splitCase``: prove preservation of invariant ``target`` by cases
    on ``predicate``.
    """

    kind: str
    target: str
    label: str | None = None
    predicate: Predicate | None = None
    loc: Loc | None = position()


@record
class Event:
    name: str
    refines: tuple[str, ...] = ()
    parameters: tuple[str, ...] = ()
    guards: tuple[LabeledPredicate, ...] = ()
    guard_theorems: tuple[LabeledPredicate, ...] = ()
    witnesses: tuple[Witness, ...] = ()
    actions: tuple[Assignment, ...] = ()
    hints: tuple[Hint, ...] = ()
    loc: Loc | None = position()
    parameter_locs: tuple[Loc, ...] = position(())

    @property
    def is_initialisation(self) -> bool:
        return self.name == INITIALISATION


@record
class Machine:
    name: str
    refines: str | None = None
    sees: str | None = None
    variables: tuple[str, ...] = ()
    invariants: tuple[LabeledPredicate, ...] = ()
    theorems: tuple[LabeledPredicate, ...] = ()
    events: tuple[Event, ...] = ()
    initialisation: Event | None = None
    loc: Loc | None = position()
    path: str | None = position()
    variable_locs: tuple[Loc, ...] = position(())

    def event(self, name: str) -> Event | None:
        for e in self.events:
            if e.name == name:
                return e
        return None

    def without_hints(self) -> "Machine":
        init = self.initialisation and replace(self.initialisation, hints=())
        events = tuple(replace(e, hints=()) for e in self.events)
        return replace(self, events=events, initialisation=init)


@record
class Context:
    name: str
    extends: str | None = None
    sets: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()
    axioms: tuple[LabeledPredicate, ...] = ()
    theorems: tuple[LabeledPredicate, ...] = ()
    loc: Loc | None = position()
    path: str | None = position()
    set_locs: tuple[Loc, ...] = position(())
    constant_locs: tuple[Loc, ...] = position(())


@record
class Model:
    """A machine bundled with everything it can see.

    ``contexts`` is the flattened visibility chain, base first.
    ``abstract`` is the model of the refined machine, when any.  A
    refines chain can be deeper than the recursion limit, so equality,
    hashing and ``repr`` loop over `levels` instead of recursing.
    """

    machine: Machine
    contexts: tuple[Context, ...] = ()
    abstract: "Model | None" = None

    def levels(self) -> Iterator["Model"]:
        """This model, the model it refines, and so on."""
        level: Model | None = self
        while level is not None:
            yield level
            level = level.abstract

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            a is not None and b is not None and (a.machine, a.contexts) == (b.machine, b.contexts)
            for a, b in zip_longest(self.levels(), other.levels())
        )

    def __hash__(self) -> int:
        return hash(tuple((level.machine, level.contexts) for level in self.levels()))

    def __repr__(self) -> str:
        heads = [f"Model(machine={m.machine!r}, contexts={m.contexts!r}, abstract=" for m in self.levels()]
        return "".join(heads) + "None" + ")" * len(heads)

    # -- identifier scopes --------------------------------------------------

    def abstract_variables(self) -> tuple[str, ...]:
        return self.abstract.machine.variables if self.abstract else ()

    def disappearing_variables(self) -> tuple[str, ...]:
        own = set(self.machine.variables)
        return tuple(v for v in self.abstract_variables() if v not in own)

    # -- visible labeled facts ----------------------------------------------

    def context_axioms(self) -> tuple[LabeledPredicate, ...]:
        return tuple(a for c in self.contexts for a in c.axioms)

    def context_theorems(self) -> tuple[LabeledPredicate, ...]:
        return tuple(t for c in self.contexts for t in c.theorems)

    def visible_facts(self) -> Iterator[LabeledPredicate]:
        """Axioms, context theorems, then invariants and theorems of the
        abstract machine (if any) and of this machine, in that order."""
        yield from self.context_axioms()
        yield from self.context_theorems()
        if self.abstract:
            yield from self.abstract.machine.invariants
            yield from self.abstract.machine.theorems
        yield from self.machine.invariants
        yield from self.machine.theorems

    def abstract_event(self, name: str) -> Event | None:
        return self.abstract.machine.event(name) if self.abstract else None


# --- sequents and obligations ----------------------------------------------


@record
class Hypothesis:
    label: str
    predicate: Predicate
    selected: bool = False


@record
class Sequent:
    hypotheses: tuple[Hypothesis, ...]
    goal: Predicate

    def labels(self) -> tuple[str, ...]:
        return tuple(h.label for h in self.hypotheses)

    def selected_labels(self) -> tuple[str, ...]:
        return tuple(h.label for h in self.hypotheses if h.selected)

    def get(self, label: str) -> Hypothesis | None:
        for h in self.hypotheses:
            if h.label == label:
                return h
        return None

    def select(self, labels: set[str] | frozenset[str]) -> "Sequent":
        """Return a sequent with the given labels additionally selected."""
        hyps = tuple(
            replace(h, selected=True) if not h.selected and h.label in labels else h
            for h in self.hypotheses
        )
        return Sequent(hyps, self.goal)

    def add(self, hyp: Hypothesis) -> "Sequent":
        return Sequent(self.hypotheses + (hyp,), self.goal)

    def with_goal(self, goal: Predicate) -> "Sequent":
        return Sequent(self.hypotheses, goal)

    def fresh_label(self, base: str, primed: bool = False) -> str:
        """The first of ``base1``, ``base2``, ... (with ``primed``:
        ``base``, ``base'``, ``base''``, ...) that no hypothesis uses."""
        taken = set(self.labels())
        spellings = (base + "'" * n for n in count()) if primed else numbered(base)
        return next(label for label in spellings if label not in taken)


#: Obligation kinds.
KIND_INV = "INV"
KIND_THM = "THM"
KIND_GRD = "GRD"
KIND_SIM = "SIM"
KIND_WFIS = "WFIS"
KIND_MRG = "MRG"


@record
class ProofObligation:
    """``hint`` is the hint still to apply: on an INV obligation from
    `generate`, the first hint of its event that targets its invariant;
    None on every other obligation and after `apply_hints_pog`.
    ``hint_applied`` prints the hint that rewrote the sequent, if any."""

    name: str
    kind: str
    sequent: Sequent
    hint_applied: str | None = None
    hint: Hint | None = None


@record
class PoSet:
    source_machine: str
    obligations: tuple[ProofObligation, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(po.name for po in self.obligations)

    def get(self, name: str) -> ProofObligation | None:
        for po in self.obligations:
            if po.name == name:
                return po
        return None
