"""Structural and type checks for models.

Every formula must type-check in the simple three-type system
(integer, boolean, set of integers); set-typed expressions may appear
only as the right-hand side of a membership.  A scope maps every
identifier a formula may mention, primed ones included, to its type; a
name missing from it is a ``primed-identifier`` or ``unknown-identifier``.
Label uniqueness, assignment shape, witness subjects, and hint
references are validated here too.  Diagnostics carry stable codes and
the file of the machine or context they point into, and are sorted by
file and source position, so the result is independent of declaration
order up to multiset equality.  `check_new_events` checks, level by
level, that the new events of a refinement leave the abstract
variables alone.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable

from .diagnostics import Diagnostic, sort_key
from .formula import (
    BINARY,
    COMPARISON_LEVEL,
    Comparison,
    Falsity,
    Formula,
    Ident,
    IntLiteral,
    IntSet,
    Loc,
    Membership,
    Minus,
    Mul,
    NatSet,
    Not,
    Quantifier,
    SetLiteral,
    Truth,
    free_identifiers,
    named_sets,
)
from .model import (
    Context,
    DETERMINISTIC,
    Event,
    MEMBER_OF,
    Model,
    SPLIT_CASE,
    USE_HYPOTHESIS,
)

INT, BOOL, SET = "integer", "boolean", "set"
_ERROR = "error"


def _is_literal(f: Formula) -> bool:
    return isinstance(f, IntLiteral) or (isinstance(f, Minus) and isinstance(f.operand, IntLiteral))


def _ints(scope: dict[str, str], names: Iterable[str]) -> dict[str, str]:
    """``scope`` with each of ``names`` an integer."""
    return {**scope, **dict.fromkeys(names, INT)}


class _Checker:
    def __init__(self, set_typed: set[str]) -> None:
        self.diagnostics: list[Diagnostic] = []
        self.set_typed = set_typed
        self.path: str | None = None  # the file of the component being checked

    def report(self, code: str, message: str, loc: Loc | None) -> None:
        self.diagnostics.append(Diagnostic(code, message, loc, self.path))

    # -- the type system ----------------------------------------------------

    def infer(self, f: Formula, scope: dict[str, str]) -> str:
        if isinstance(f, (Truth, Falsity)):
            return BOOL
        if isinstance(f, IntLiteral):
            return INT
        if isinstance(f, (NatSet, IntSet)):
            return SET
        if isinstance(f, Ident):
            t = scope.get(f.key)
            if t is not None:
                return t
            if f.primed:
                self.report("primed-identifier", f"primed identifier {f.key!r} is not allowed here", f.loc)
            else:
                self.report("unknown-identifier", f"unknown identifier {f.key!r}", f.loc)
            return _ERROR
        if isinstance(f, SetLiteral):
            for e in f.elements:
                self.want(e, INT, scope, "set literal element")
            return SET
        if isinstance(f, Minus):
            self.want(f.operand, INT, scope, "arithmetic operand")
            return INT
        op = BINARY.get(type(f))
        if op is not None:
            if isinstance(f, Mul) and not (_is_literal(f.left) or _is_literal(f.right)):
                self.report("nonlinear-multiplication", "multiplication needs an integer literal operand", f.loc)
            # the levels above the comparisons are arithmetic, those below logical
            t, what = (INT, "arithmetic operand") if op.level > COMPARISON_LEVEL else (BOOL, "logical operand")
            self.want(f.left, t, scope, what)
            self.want(f.right, t, scope, what)
            return t
        if isinstance(f, Comparison):
            self.want(f.left, INT, scope, "comparison operand")
            self.want(f.right, INT, scope, "comparison operand")
            return BOOL
        if isinstance(f, Membership):
            self.want(f.element, INT, scope, "membership element")
            self.want(f.container, SET, scope, "membership container")
            return BOOL
        if isinstance(f, Not):
            self.want(f.operand, BOOL, scope, "operand of 'not'")
            return BOOL
        if isinstance(f, Quantifier):
            self.want(f.body, BOOL, _ints(scope, (b.key for b in f.binders)), "quantifier body")
            return BOOL
        raise AssertionError(f"unhandled node {type(f).__name__}")

    def want(self, f: Formula, expected: str, scope: dict[str, str], what: str) -> None:
        actual = self.infer(f, scope)
        if actual not in (expected, _ERROR):
            if actual == SET:
                msg = f"set-typed expression is only allowed on the right of 'in' ({what})"
            else:
                msg = f"{what} must be {expected}, found {actual}"
            self.report("type-error", msg, f.loc)


def _set_typed(model: Model) -> set[str]:
    """The constants used as a membership container: they are set-typed
    everywhere."""
    out: set[str] = set()
    formulas = [lp.predicate for lp in model.context_axioms() + model.context_theorems()]
    for level in model.levels():
        m = level.machine
        formulas += [lp.predicate for lp in m.invariants + m.theorems]
        for e in m.events + ((m.initialisation,) if m.initialisation else ()):
            formulas += [lp.predicate for lp in e.guards + e.guard_theorems]
            formulas += [a.rhs for a in e.actions]
            formulas += [w.predicate for w in e.witnesses]
            formulas += [h.predicate for h in e.hints if h.predicate is not None]
            out.update(a.rhs.key for a in e.actions if a.kind == MEMBER_OF and isinstance(a.rhs, Ident))
    for f in formulas:
        out |= named_sets(f)
    return out


def _context_env(checker: _Checker, contexts: tuple[Context, ...]) -> dict[str, str]:
    env: dict[str, str] = {}
    for ctx in contexts:
        for s in ctx.sets:
            env[s] = SET
        for k in ctx.constants:
            env[k] = SET if k in checker.set_typed else INT
    return env


def _check_context(checker: _Checker, ctx: Context, inherited: tuple[Context, ...]) -> None:
    env = _context_env(checker, inherited + (ctx,))
    names_seen: set[str] = {name for c in inherited for name in c.sets + c.constants}
    # a model built without the names' positions reports at its header
    for name, loc in zip_longest(ctx.sets + ctx.constants, ctx.set_locs + ctx.constant_locs, fillvalue=ctx.loc):
        if name in names_seen:
            checker.report("duplicate-identifier", f"duplicate declaration of {name!r}", loc)
        names_seen.add(name)
    labels: set[str] = {lp.label for c in inherited for lp in c.axioms + c.theorems}
    for lp in ctx.axioms + ctx.theorems:
        if lp.label in labels:
            checker.report("duplicate-label", f"duplicate label {lp.label!r}", lp.loc)
        labels.add(lp.label)
        checker.want(lp.predicate, BOOL, env, "axiom")


def _check_suchthat_primes(checker: _Checker, action) -> None:
    targets_primed = frozenset(t + "'" for t in action.targets)
    used = {k for k in free_identifiers(action.rhs) if k.endswith("'")}
    extra = sorted(used - targets_primed)
    missing = sorted(targets_primed - used)
    if extra:
        checker.report(
            "suchthat-primes",
            f"primed identifiers {', '.join(extra)} are not primed targets of this action",
            action.loc,
        )
    if missing:
        checker.report(
            "suchthat-primes",
            f"suchThat predicate never mentions {', '.join(missing)}",
            action.loc,
        )


def _check_event(
    checker: _Checker,
    model: Model,
    event: Event,
    ctx_env: dict[str, str],
    fact_labels: set[str],
    invariant_labels: set[str],
) -> None:
    own_vars = model.machine.variables
    if event.is_initialisation:
        if event.parameters:
            checker.report("init-form", "the initialisation event cannot have parameters", event.loc)
        if event.guards:
            checker.report("init-form", "the initialisation event cannot have guards", event.loc)

    seen_params: set[str] = set()
    for p, loc in zip_longest(event.parameters, event.parameter_locs, fillvalue=event.loc):
        if p in seen_params:
            checker.report("duplicate-parameter", f"duplicate parameter {p!r}", loc)
        if p in own_vars or p in ctx_env:
            checker.report("duplicate-identifier", f"parameter {p!r} shadows another identifier", loc)
        seen_params.add(p)

    guard_scope = _ints(ctx_env, own_vars + event.parameters)
    labels: set[str] = set()
    for lp in event.guards + event.guard_theorems:
        if lp.label in labels:
            checker.report("duplicate-label", f"duplicate label {lp.label!r} in event {event.name!r}", lp.loc)
        if lp.label in fact_labels:
            checker.report(
                "duplicate-label",
                f"label {lp.label!r} in event {event.name!r} collides with a visible fact",
                lp.loc,
            )
        labels.add(lp.label)
        checker.want(lp.predicate, BOOL, guard_scope, "guard")

    assigned: set[str] = set()
    for a in event.actions:
        if a.label in labels:
            checker.report("duplicate-label", f"duplicate label {a.label!r} in event {event.name!r}", a.loc)
        labels.add(a.label)
        for t in a.targets:
            if t not in own_vars:
                checker.report("assignment-target", f"assignment target {t!r} is not a variable", a.loc)
            if t in assigned:
                checker.report("duplicate-assignment", f"duplicate assignment target {t!r}", a.loc)
            assigned.add(t)
        if a.kind == DETERMINISTIC:
            checker.want(a.rhs, INT, guard_scope, "assignment right-hand side")
        elif a.kind == MEMBER_OF:
            checker.want(a.rhs, SET, guard_scope, "':: ' right-hand side")
        else:
            post = [t + "'" for t in a.targets if t in own_vars]
            checker.want(a.rhs, BOOL, _ints(guard_scope, post), "suchThat predicate")
            _check_suchthat_primes(checker, a)

    # witnesses and case hints may also read the abstract variables
    scope = _ints(guard_scope, model.abstract_variables()) if event.witnesses or event.hints else {}
    _check_witnesses(checker, model, event, scope, labels, fact_labels)
    _check_refines(checker, model, event)
    _check_hints(checker, event, scope, fact_labels, invariant_labels)


def _check_witnesses(
    checker: _Checker,
    model: Model,
    event: Event,
    scope: dict[str, str],
    event_labels: set[str],
    fact_labels: set[str],
) -> None:
    m = model.machine
    abstract_events = [model.abstract_event(r) for r in event.refines]
    abstract_params: set[str] = set()
    for ae in abstract_events:
        if ae is not None:
            abstract_params.update(ae.parameters)
    disappearing = set(model.disappearing_variables())

    seen: set[str] = set()
    for w in event.witnesses:
        key = w.subject.key
        if key in seen:
            checker.report("duplicate-witness", f"duplicate witness for {key!r}", w.loc)
        seen.add(key)
        if key in event_labels or key in fact_labels:
            checker.report("duplicate-label", f"witness subject {key!r} collides with another label", w.loc)
        if not event.refines:
            checker.report("useless-witness", f"witness {key!r} on an event that refines nothing", w.loc)
        elif w.subject.primed:
            if w.subject.name not in disappearing:
                checker.report(
                    "useless-witness",
                    f"witness subject {key!r} is not a primed disappearing abstract variable",
                    w.loc,
                )
        else:
            if w.subject.name not in abstract_params:
                checker.report("useless-witness", f"witness subject {key!r} is not an abstract parameter", w.loc)
            if w.subject.name in event.parameters or w.subject.name in m.variables:
                checker.report("useless-witness", f"witness subject {key!r} names a concrete identifier", w.loc)
        if key not in free_identifiers(w.predicate):
            checker.report("useless-witness", f"witness predicate never mentions its subject {key!r}", w.loc)
        post = [v + "'" for v in m.variables] + [key]
        checker.want(w.predicate, BOOL, _ints(scope, post), "witness predicate")

    if event.refines and abstract_events and all(ae is not None for ae in abstract_events):
        first = abstract_events[0]
        assert first is not None
        for p in first.parameters:
            if p not in event.parameters and p not in seen:
                checker.report("missing-witness", f"no witness for abstract parameter {p!r}", event.loc)
        for v in sorted(disappearing):
            if v + "'" not in seen:
                checker.report("missing-witness", f"no witness for disappearing abstract variable {v}'", event.loc)


def _check_refines(checker: _Checker, model: Model, event: Event) -> None:
    if not event.refines:
        return
    if model.abstract is None:
        checker.report(
            "unknown-event",
            f"event {event.name!r} refines {event.refines[0]!r} but the machine refines nothing",
            event.loc,
        )
        return
    seen: set[str] = set()
    resolved = []
    for name in event.refines:
        if name in seen:
            checker.report("duplicate-event", f"abstract event {name!r} listed twice", event.loc)
        seen.add(name)
        ae = model.abstract_event(name)
        if ae is None:
            checker.report("unknown-event", f"no abstract event named {name!r}", event.loc)
        else:
            resolved.append(ae)
    if len(event.refines) > 1 and len(resolved) > 1:
        first = resolved[0]
        for other in resolved[1:]:
            if other.parameters != first.parameters or other.actions != first.actions:
                checker.report(
                    "merge-mismatch",
                    f"merged abstract events {first.name!r} and {other.name!r} must have "
                    "identical parameter and action lists",
                    event.loc,
                )


def _check_hints(
    checker: _Checker, event: Event, scope: dict[str, str], fact_labels: set[str], invariant_labels: set[str]
) -> None:
    """``fact_labels`` are the labels of the visible facts (`Model.visible_facts`)."""
    targets: set[str] = set()
    for h in event.hints:
        if h.target in targets:
            checker.report(
                "duplicate-hint-target",
                f"more than one hint for invariant {h.target!r} on event {event.name!r}",
                h.loc,
            )
        targets.add(h.target)
        if h.target not in invariant_labels:
            if h.target in fact_labels:
                checker.report(
                    "hint-target",
                    f"hint target {h.target!r} must name an invariant of this machine, not a theorem or axiom",
                    h.loc,
                )
            else:
                checker.report("hint-target", f"hint target {h.target!r} names no invariant of this machine", h.loc)
        if h.kind == USE_HYPOTHESIS:
            assert h.label is not None
            if h.label not in fact_labels:
                checker.report("unresolved-hint-label", f"unresolved hint label {h.label!r}", h.loc)
        elif h.kind == SPLIT_CASE and h.predicate is not None:
            primed = sorted(k for k in free_identifiers(h.predicate) if k.endswith("'"))
            if primed:
                checker.report(
                    "hint-primes",
                    f"case predicate must not mention post-state identifiers ({', '.join(primed)})",
                    h.loc,
                )
            checker.want(h.predicate, BOOL, scope, "case predicate")


def _check_machine(checker: _Checker, model: Model) -> None:
    m = model.machine
    ctx_env = _context_env(checker, model.contexts)

    seen_vars: set[str] = set()
    for v, loc in zip_longest(m.variables, m.variable_locs, fillvalue=m.loc):
        if v in seen_vars:
            checker.report("duplicate-variable", f"duplicate variable {v!r}", loc)
        if v in ctx_env:
            checker.report("duplicate-identifier", f"variable {v!r} shadows a context identifier", loc)
        seen_vars.add(v)

    own = m.invariants + m.theorems
    facts = list(model.visible_facts())
    fact_labels = {lp.label for lp in facts[: len(facts) - len(own)]}  # own facts come last
    inv_scope = _ints(ctx_env, model.abstract_variables() + m.variables)
    own_labels: set[str] = set()
    for lp in own:
        if lp.label in own_labels:
            checker.report("duplicate-label", f"duplicate label {lp.label!r}", lp.loc)
        elif lp.label in fact_labels:
            checker.report("duplicate-label", f"label {lp.label!r} collides with a visible fact", lp.loc)
        own_labels.add(lp.label)
        checker.want(lp.predicate, BOOL, inv_scope, "invariant")
    fact_labels |= own_labels
    invariant_labels = {lp.label for lp in m.invariants}

    seen_events: set[str] = set()
    events = m.events + ((m.initialisation,) if m.initialisation else ())
    for e in events:
        if e.name in seen_events:
            checker.report("duplicate-event", f"duplicate event {e.name!r}", e.loc)
        seen_events.add(e.name)
        _check_event(checker, model, e, ctx_env, fact_labels, invariant_labels)


def wellformed(model: Model) -> list[Diagnostic]:
    """Check a model and everything it sees or refines.

    ``model.contexts`` holds every level's contexts, base first, as
    `load_model` builds it; each is checked once, after those before it.
    Returns diagnostics sorted by source position; an empty list means
    the model is well-formed.
    """
    checker = _Checker(_set_typed(model))
    for i, ctx in enumerate(model.contexts):
        checker.path = ctx.path
        _check_context(checker, ctx, model.contexts[:i])
    for level in model.levels():
        checker.path = level.machine.path
        _check_machine(checker, level)
    return sorted(checker.diagnostics, key=sort_key)


def check_new_events(model: Model) -> list[Diagnostic]:
    """At every refinement level, a new event must not assign a variable
    that the machine it refines declares; in event and action order,
    the model's own level first."""
    diags: list[Diagnostic] = []
    for level in model.levels():
        if level.abstract is None:
            continue
        abstract_vars = set(level.abstract.machine.variables)
        m = level.machine
        diags += (
            Diagnostic(
                "new-event-assigns-abstract", f"new event {e.name!r} assigns abstract variable {v!r}", e.loc, m.path
            )
            for e in m.events
            if not e.refines
            for a in e.actions
            for v in a.targets
            if v in abstract_vars
        )
    return diags
