"""Hint-aware tactic prover.

A sequent is first expanded with the safe structural tactics
(implication introduction, conjunction splitting, one-point rule), then
hints widen the hypothesis selection or split the proof into cases, and
each remaining leaf is closed either syntactically or by `decide`.

`decide` refutes the conjunction of the selected hypotheses and the
negated goal.  Membership is elaborated into arithmetic (memberships in
declared carrier sets stay opaque), and the result is put in negation
normal form over linear atoms, long chains as balanced trees.  A lazy
DPLL(T) search then looks for a propositional model: before branching
it assigns every literal on the top-level conjunction spine (unit
propagation), and each partial assignment that gained a linear literal
is checked with Fourier-Motzkin elimination over the integers, so an
arithmetically inconsistent one is pruned with its whole subtree.
Every Fourier-Motzkin row keeps integer coefficients, divided by their
gcd with the bound rounded down, and of rows with equal coefficients
only the tightest is kept.  The rows are split into variable-disjoint
components, eliminated one by one; a node inherits the components of
the last check on its path and rebuilds only those its new literals
join.  Literal rows, component results and hypothesis NNFs are kept in
a `Memo`, which one `prove` run shares across its obligations.  The
procedure is sound but incomplete: PROVED is trustworthy, UNPROVED may
just mean "too hard", and counterexamples are only reported when they
check out against the selected hypotheses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Iterable

from .formula import (
    And,
    Comparison,
    Falsity,
    Formula,
    Ident,
    Iff,
    Implies,
    IntLiteral,
    IntSet,
    Membership,
    Minus,
    Mul,
    NatSet,
    Not,
    Or,
    Predicate,
    Quantifier,
    SetLiteral,
    Sub,
    Add,
    Truth,
    Unevaluable,
    balanced,
    conjunction,
    evaluate,
    free_identifiers,
    substitute,
    walk,
)
from .model import (
    Hypothesis,
    ProofObligation,
    Sequent,
    USE_HYPOTHESIS,
)
# case_sequents and tactic_select are the hint tactics, public here as well
from .pog import apply_hint, case_sequents, tactic_select  # noqa: F401
from .printer import print_formula, print_hint

PROVED = "proved"
UNPROVED = "unproved"
UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ProveOptions:
    lasso: bool = False
    all_hyps: bool = False
    timeout_ms: int = 2000


@dataclass(frozen=True)
class TraceStep:
    tactic: str
    detail: str = ""

    def render(self) -> str:
        return f"{self.tactic}({self.detail})" if self.detail else self.tactic


@dataclass(frozen=True)
class Decision:
    status: str
    reason: str
    counterexample: tuple[tuple[str, int], ...] | None = None


@dataclass(frozen=True)
class ProofResult:
    name: str
    kind: str
    status: str
    reason: str
    selected_labels: tuple[str, ...]
    hint_applied: str | None
    trace: tuple[TraceStep, ...]
    counterexample: tuple[tuple[str, int], ...] | None = None

    def trace_summary(self) -> str:
        return "; ".join(step.render() for step in self.trace)


class _Unsupported(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _Budget(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# --- linear atoms -------------------------------------------------------------

# A linear atom is sum(coeff * var) <= bound with integer coefficients,
# keyed by ((var, coeff), ...) sorted by name plus the bound; a
# Fourier-Motzkin row has the same shape.
_Row = tuple[tuple[tuple[str, int], ...], int]


def _linear(e: Formula) -> tuple[dict[str, int], int]:
    if isinstance(e, IntLiteral):
        return {}, e.value
    if isinstance(e, Ident):
        return {e.key: 1}, 0
    if isinstance(e, Minus):
        coeffs, const = _linear(e.operand)
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(e, (Add, Sub)):
        lc, lk = _linear(e.left)
        rc, rk = _linear(e.right)
        sign = 1 if isinstance(e, Add) else -1
        for k, v in rc.items():
            lc[k] = lc.get(k, 0) + sign * v
        return lc, lk + sign * rk
    if isinstance(e, Mul):
        lc, lk = _linear(e.left)
        rc, rk = _linear(e.right)
        if not lc:
            return {k: lk * v for k, v in rc.items()}, lk * rk
        if not rc:
            return {k: rk * v for k, v in lc.items()}, rk * lk
        raise _Unsupported("nonlinear multiplication")
    raise _Unsupported(f"set-valued term in arithmetic position: {print_formula(e)}")


def _atom(diff_coeffs: dict[str, int], bound: int):
    """Normalised leaf for sum(coeffs) <= bound; constant atoms fold."""
    tightened = _tighten(diff_coeffs, bound)
    if tightened is None:
        return ("true",)
    if not tightened[0]:
        return ("false",)
    return ("lit", ("lin",) + tightened, True)


def _le(a: Formula, b: Formula, offset: int = 0):
    """Tree for a - b <= offset."""
    ac, ak = _linear(a)
    bc, bk = _linear(b)
    for k, v in bc.items():
        ac[k] = ac.get(k, 0) - v
    return _atom(ac, offset + bk - ak)


def _nnf(f: Formula, positive: bool):
    """Negation normal form tree over linear and opaque literals.

    Nodes: ("and"|"or", left, right), ("lit", key, polarity),
    ("true",), ("false",).
    """
    if isinstance(f, Truth):
        return ("true",) if positive else ("false",)
    if isinstance(f, Falsity):
        return ("false",) if positive else ("true",)
    if isinstance(f, Not):
        return _nnf(f.operand, not positive)
    if isinstance(f, And):
        op = "and" if positive else "or"
        return (op, _nnf(f.left, positive), _nnf(f.right, positive))
    if isinstance(f, Or):
        op = "or" if positive else "and"
        return (op, _nnf(f.left, positive), _nnf(f.right, positive))
    if isinstance(f, Implies):
        if positive:
            return ("or", _nnf(f.left, False), _nnf(f.right, True))
        return ("and", _nnf(f.left, True), _nnf(f.right, False))
    if isinstance(f, Iff):
        both = ("and", _nnf(f.left, positive), _nnf(f.right, True))
        neither = ("and", _nnf(f.left, not positive), _nnf(f.right, False))
        return ("or", both, neither)
    if isinstance(f, Comparison):
        return _comparison(f, positive)
    if isinstance(f, Membership):
        return _membership(f, positive)
    if isinstance(f, Quantifier):
        raise _Unsupported(f"quantified goal or hypothesis: {print_formula(f)}")
    raise _Unsupported(f"cannot decide {print_formula(f)}")


def _comparison(f: Comparison, positive: bool):
    a, b = f.left, f.right
    op = f.op
    if not positive:
        flip = {"=": "/=", "/=": "=", "<": ">=", ">=": "<", "<=": ">", ">": "<="}
        op = flip[op]
    if op == "<=":
        return _le(a, b)
    if op == "<":
        return _le(a, b, -1)
    if op == ">=":
        return _le(b, a)
    if op == ">":
        return _le(b, a, -1)
    if op == "=":
        return ("and", _le(a, b), _le(b, a))
    return ("or", _le(a, b, -1), _le(b, a, -1))


def _membership(f: Membership, positive: bool):
    if isinstance(f.container, NatSet):
        zero = IntLiteral(0)
        return _comparison(Comparison("<=", zero, f.element), positive)
    if isinstance(f.container, IntSet):
        return ("true",) if positive else ("false",)
    if isinstance(f.container, SetLiteral):
        if positive:
            eqs = [_comparison(Comparison("=", f.element, e), True) for e in f.container.elements]
            return balanced(lambda a, b: ("or", a, b), eqs) if eqs else ("false",)
        # e /= x rather than x /= e: the order of its two literals steers the search
        nes = [_comparison(Comparison("=", e, f.element), False) for e in f.container.elements]
        return balanced(lambda a, b: ("and", a, b), nes) if nes else ("true",)
    if isinstance(f.container, Ident):
        key = ("set", f.container.key, f.element)
        return ("lit", key, positive)
    raise _Unsupported(f"membership in {print_formula(f.container)}")


# --- lazy DPLL(T) search ------------------------------------------------------


class Memo:
    """Theory results shared by the `decide` calls of one `prove` run:
    the row of each (linear literal, polarity), the `_eliminate` result
    of each component keyed by its frozen row set, and the NNF of each
    hypothesis.  Every entry is a pure function of its key, so verdicts
    and branch counts do not depend on what the memo holds."""

    def __init__(self) -> None:
        self.rows: dict = {}
        self.components: dict = {}
        self.nnf: dict = {}


class _Search:
    def __init__(self, deadline: float | None, cap: int, memo: Memo | None = None) -> None:
        self.deadline = deadline
        self.cap = cap
        self.visited = 0
        self.memo = memo if memo is not None else Memo()

    def tick(self, n: int = 1) -> None:
        self.visited += n
        if self.visited > self.cap:
            self.visited = self.cap + 1  # where ticking one at a time stops
            raise _Budget("branch cap exceeded")
        self.check_deadline()

    def check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _Budget("timeout")


def _simplify(tree, assignment: dict):
    head = tree[0]
    if head in ("true", "false"):
        return tree
    if head == "lit":
        _, key, polarity = tree
        value = assignment.get(key)
        if value is None:
            return tree
        return ("true",) if value == polarity else ("false",)
    left = _simplify(tree[1], assignment)
    right = _simplify(tree[2], assignment)
    if head == "and":
        if left == ("false",) or right == ("false",):
            return ("false",)
        if left == ("true",):
            return right
        if right == ("true",):
            return left
    else:
        if left == ("true",) or right == ("true",):
            return ("true",)
        if left == ("false",):
            return right
        if right == ("false",):
            return left
    return (head, left, right)


def _first_literal(tree):
    if tree[0] == "lit":
        return tree[1]
    if tree[0] in ("and", "or"):
        found = _first_literal(tree[1])
        return found if found is not None else _first_literal(tree[2])
    return None


def _units(tree, out: list) -> list:
    """The literals on the top-level conjunction spine: every model of
    the tree makes them true."""
    if tree[0] == "and":
        _units(tree[1], out)
        _units(tree[2], out)
    elif tree[0] == "lit":
        out.append((tree[1], tree[2]))
    return out


def _propagate(tree, assignment: dict, search: _Search, theory: _Theory, new: list, trail: list):
    """One search node: assign the unit literals (onto ``trail``), and
    check a model or a partial assignment that gained linear literals
    (``new``, since ``theory`` was checked) for arithmetic consistency.
    Returns the simplified tree and theory state, or None if dead."""
    search.tick()
    tree = _simplify(tree, assignment)
    while tree[0] not in ("true", "false"):
        units = _units(tree, [])
        if not units:
            break
        for key, polarity in units:
            value = assignment.get(key)
            if value is None:
                assignment[key] = polarity
                trail.append(key)
                if key[0] == "lin":
                    new.append(key)
            elif value != polarity:
                return None
        tree = _simplify(tree, assignment)
    if tree == ("false",):
        return None
    if new or tree == ("true",):
        theory = _extend(theory, new, assignment, search)
        if theory is None:
            return None
    return tree, theory


def _solve(tree, search: _Search):
    """Depth-first search for a model of the tree, branching on the first
    literal, True first; the open nodes are kept on a list, as a path
    can be thousands of branches long.  Returns the integer sample
    (possibly partial) and the literal assignment of the first model
    found, or None when there is none."""
    assignment: dict = {}
    frames: list = []  # the open nodes' tree, theory state, trail and branch literal
    trail: list = []
    node = _propagate(tree, assignment, search, _EMPTY, [], trail)
    while True:
        if node is None:
            # undo the dead node, then every open node that tried both values
            for key in trail:
                del assignment[key]
            while frames and not assignment[frames[-1][3]]:
                _, _, trail, key = frames.pop()
                for key in (key, *trail):
                    del assignment[key]
            if not frames:
                return None
            tree, theory, _, key = frames[-1]
            assignment[key] = False
        else:
            tree, theory = node
            if tree == ("true",):
                return _sample(theory), dict(assignment)
            key = _first_literal(tree)
            frames.append((tree, theory, trail, key))
            assignment[key] = True
        trail = []
        node = _propagate(tree, assignment, search, theory, [key] if key[0] == "lin" else [], trail)


# --- Fourier-Motzkin ----------------------------------------------------------

def _tighten(coeffs: dict[str, int], bound: int) -> _Row | None:
    """Divide by the gcd of the coefficients and floor the bound; all
    variables range over the integers.  Returns None for a trivially
    true constraint."""
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    if not coeffs:
        return ((), bound) if bound < 0 else None
    g = math.gcd(*coeffs.values())
    return tuple(sorted((k, v // g) for k, v in coeffs.items())), bound // g


# The theory state of a feasible partial assignment: a union-find over
# the variable names of its linear rows, and for each root the rows of
# that variable-disjoint component (coefficients -> tightest bound) with
# their `_eliminate` result.  A state is never changed once built.
_Theory = tuple[dict[str, str], dict[str, tuple[dict, tuple]]]
_EMPTY: _Theory = ({}, {})


def _extend(theory: _Theory, keys: list, assignment: dict, search: _Search) -> _Theory | None:
    """The state with the rows of the linear literals ``keys`` added, or
    None when they make it infeasible.  Only the components the new rows
    join are rebuilt and looked up in the memo.  Ticks once per variable
    in sorted order up to the first that gives a false row, as one
    elimination over all of them would."""
    memo = search.memo
    parent, parts = dict(theory[0]), dict(theory[1])
    changed: dict[str, dict] = {}
    for key in keys:
        value = assignment[key]
        row = memo.rows.get((key, value))
        if row is None:
            # `_atom` tightened the key; its negation stays tightened
            search.check_deadline()
            _, coeffs, bound = key
            row = (coeffs, bound) if value else (tuple((k, -v) for k, v in coeffs), -bound - 1)
            memo.rows[key, value] = row
        coeffs, bound = row
        # the roots (union-find with path halving) of the row's variables
        roots: list[str] = []
        for name, _ in coeffs:
            while (up := parent.setdefault(name, name)) != name:
                parent[name] = name = parent[up]
            if name not in roots:
                roots.append(name)
        root = roots[0]
        part = changed.get(root)
        if part is None:
            part = changed[root] = dict(parts[root][0]) if root in parts else {}
        for other in roots[1:]:
            parent[other] = root
            dropped = parts.pop(other, ({},))[0]
            part.update(changed.pop(other, dropped))
        # of two rows with equal coefficients the tighter one implies
        # the other, so only that one is kept
        if part.get(coeffs, bound) >= bound:
            part[coeffs] = bound

    stop = None
    for root, part in changed.items():
        memo_key = frozenset(part.items())
        result = memo.components.get(memo_key)
        if result is None:
            result = memo.components[memo_key] = _eliminate(part, search)
        parts[root] = (part, result)
        if result[0] is not None and (stop is None or result[0] < stop):
            stop = result[0]
    if stop is not None:
        search.tick(sum(1 for name in parent if name <= stop))
        return None
    search.tick(len(parent))
    return parent, parts


def _sample(theory: _Theory) -> dict[str, int] | None:
    """The integer sample of a feasible state, None when not integral."""
    samples = [sample for _, (_, sample) in theory[1].values()]
    if any(sample is None for sample in samples):
        return None
    return {name: v for sample in samples for name, v in sample.items()}


def _feasible(assignment: dict, search: _Search) -> tuple[bool, dict[str, int] | None]:
    """Fourier-Motzkin on an assignment's linear literals, from scratch:
    feasibility and the integer sample (None when not integral)."""
    theory = _extend(_EMPTY, [key for key in assignment if key[0] == "lin"], assignment, search)
    return (False, None) if theory is None else (True, _sample(theory))


def _eliminate(rows: dict, search: _Search) -> tuple[str | None, dict[str, int] | None]:
    """Eliminate the variables of one component in sorted order (a row
    holds the one being eliminated as its first coefficient).  Returns
    the variable that gave a false row, or None and the integer sample
    (None when it is not integral)."""
    stages: list[tuple[str, dict]] = []
    current = rows
    for name in sorted({name for coeffs in rows for name, _ in coeffs}):
        stages.append((name, current))
        lowers, uppers, rest = [], [], {}
        for coeffs, bound in current.items():
            search.check_deadline()
            if coeffs[0][0] != name:
                rest[coeffs] = bound
            elif coeffs[0][1] > 0:
                uppers.append((coeffs, bound))
            else:
                lowers.append((coeffs, bound))
        for lc, lb in lowers:
            la = -lc[0][1]
            for uc, ub in uppers:
                search.check_deadline()
                ua = uc[0][1]
                combined = {k: v * la for k, v in uc[1:]}
                for k, v in lc[1:]:
                    combined[k] = combined.get(k, 0) + v * ua
                c = _tighten(combined, ub * la + lb * ua)
                if c is not None:
                    coeffs, bound = c
                    if not coeffs:
                        return name, None
                    if rest.get(coeffs, bound) >= bound:
                        rest[coeffs] = bound
        current = rest

    sample: dict[str, int] = {}
    for name, cons in reversed(stages):
        # a * name <= rest bounds name by rest / a, rounded down for
        # a > 0 (an upper bound) and up for a < 0 (a lower bound)
        lows, highs = [], []
        for coeffs, bound in cons.items():
            if coeffs[0][0] == name:
                a = coeffs[0][1]
                rest = bound - sum(v * sample[k] for k, v in coeffs[1:])
                if a > 0:
                    highs.append(rest // a)
                else:
                    lows.append(-(rest // -a))
        value = min([max([0, *lows]), *highs])  # the value in range nearest 0
        if lows and value < max(lows):
            return None, None
        sample[name] = value
    return None, sample


# --- the decision entry point ---------------------------------------------------


def _has_opaque(formulas: Iterable[Formula]) -> bool:
    for f in formulas:
        for node in walk(f):
            if isinstance(node, Membership) and isinstance(node.container, Ident):
                return True
    return False


def decide(
    hypotheses: tuple[Predicate, ...],
    goal: Predicate,
    deadline: float | None = None,
    cap: int = 1 << 16,
    memo: Memo | None = None,
) -> Decision:
    """Validity of hypotheses |- goal, by refuting their conjunction with
    the negated goal.  A ``memo`` shared by several calls saves their
    common theory work; without one each call keeps its own."""
    try:
        trees = [_nnf(goal, False)]
        for h in reversed(hypotheses):
            if memo is None:  # hashing a predicate costs a seventh of its NNF
                trees.append(_nnf(h, True))
            else:
                trees.append(memo.nnf.get(h) or memo.nnf.setdefault(h, _nnf(h, True)))
    except _Unsupported as u:
        return Decision(UNSUPPORTED, u.reason)
    search = _Search(deadline, cap, memo)
    try:
        found = _solve(balanced(lambda a, b: ("and", a, b), trees[::-1]), search)
    except _Budget as b:
        return Decision(UNPROVED, b.reason)
    if found is None:
        return Decision(PROVED, "no countermodel")
    sample, assignment = found
    if _has_opaque(hypotheses + (goal,)):
        return Decision(UNPROVED, "countermodel constrains opaque set memberships")
    if sample is None:
        return Decision(UNPROVED, "countermodel is not integral")
    names = sorted(set().union(*[free_identifiers(f) for f in hypotheses + (goal,)]))
    valuation = {n: sample.get(n, 0) for n in names}
    try:
        ok = all(evaluate(h, valuation) for h in hypotheses) and not evaluate(goal, valuation)
    except Unevaluable:
        ok = False
    if not ok:
        return Decision(UNPROVED, "countermodel could not be confirmed")
    return Decision(UNPROVED, "countermodel found", tuple(sorted(valuation.items())))


# --- structural tactics -------------------------------------------------------


def _flatten_and(p: Predicate) -> list[Predicate]:
    if isinstance(p, And):
        return _flatten_and(p.left) + _flatten_and(p.right)
    return [p]


def _solved_by_equation(conjunct: Predicate, key: str) -> Formula | None:
    if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, Ident) and left.key == key and key not in free_identifiers(right):
        return right
    if isinstance(right, Ident) and right.key == key and key not in free_identifiers(left):
        return left
    return None


def one_point(goal: Predicate) -> Predicate | None:
    """Eliminate existential binders that are pinned by an equation."""
    if not (isinstance(goal, Quantifier) and goal.kind == "exists"):
        return None
    binders = list(goal.binders)
    conjuncts = _flatten_and(goal.body)
    progress = False
    changed = True
    while changed:
        changed = False
        for b in list(binders):
            for i, c in enumerate(conjuncts):
                term = _solved_by_equation(c, b.key)
                if term is None:
                    continue
                rest = conjuncts[:i] + conjuncts[i + 1 :]
                conjuncts = [substitute(p, {b.key: term}) for p in rest]
                binders.remove(b)
                progress = changed = True
                break
            if changed:
                break
    if not progress:
        return None
    body = conjunction(tuple(conjuncts))
    if binders:
        return Quantifier("exists", tuple(binders), body)
    return body


def intro(sequent: Sequent) -> Sequent | None:
    if not isinstance(sequent.goal, Implies):
        return None
    hyp = Hypothesis(sequent.fresh_label("intro"), sequent.goal.left, selected=True)
    return Sequent(sequent.hypotheses + (hyp,), sequent.goal.right)


def split_conjunction(sequent: Sequent) -> tuple[Sequent, Sequent] | None:
    if not isinstance(sequent.goal, And):
        return None
    return sequent.with_goal(sequent.goal.left), sequent.with_goal(sequent.goal.right)


def tactic_cut(sequent: Sequent, predicate: Predicate) -> tuple[Sequent, Sequent]:
    """Cut: prove the predicate first, then use it.

    Returns the side sequent (same hypotheses, goal replaced by the cut
    predicate) and the main sequent (cut predicate added as a selected
    hypothesis under a fresh label).
    """
    side = sequent.with_goal(predicate)
    main = sequent.add(Hypothesis(sequent.fresh_label("cut"), predicate, selected=True))
    return side, main


def tactic_lasso(sequent: Sequent) -> tuple[Sequent, int]:
    """Select unselected hypotheses that share an identifier with the
    goal or with an already selected hypothesis, to a fixed point."""
    hyps = list(sequent.hypotheses)
    reach = set(free_identifiers(sequent.goal))
    for h in hyps:
        if h.selected:
            reach |= free_identifiers(h.predicate)
    added = 0
    changed = True
    while changed:
        changed = False
        for i, h in enumerate(hyps):
            if h.selected:
                continue
            frees = free_identifiers(h.predicate)
            if frees & reach:
                hyps[i] = replace(h, selected=True)
                reach |= frees
                added += 1
                changed = True
    return Sequent(tuple(hyps), sequent.goal), added


def _expand(sequent: Sequent, trace: list[TraceStep]) -> list[Sequent]:
    """Apply intro, conjunction splitting and the one-point rule until
    none of them fires."""
    pending = [sequent]
    leaves: list[Sequent] = []
    while pending:
        s = pending.pop(0)
        intro_result = intro(s)
        if intro_result is not None:
            trace.append(TraceStep("intro", intro_result.hypotheses[-1].label))
            pending.insert(0, intro_result)
            continue
        halves = split_conjunction(s)
        if halves is not None:
            trace.append(TraceStep("splitConjunction", "2 subgoals"))
            pending[0:0] = list(halves)
            continue
        pinned = one_point(s.goal)
        if pinned is not None:
            trace.append(TraceStep("onePoint"))
            pending.insert(0, s.with_goal(pinned))
            continue
        leaves.append(s)
    return leaves


def _close(sequent: Sequent, deadline: float, trace: list[TraceStep], memo: Memo | None) -> Decision:
    if isinstance(sequent.goal, Truth):
        trace.append(TraceStep("closeSyntactic", "goal is true"))
        return Decision(PROVED, "goal is true")
    for h in sequent.hypotheses:
        if h.selected and h.predicate == sequent.goal:
            trace.append(TraceStep("closeSyntactic", h.label))
            return Decision(PROVED, f"hypothesis {h.label}")
    selected = tuple(h.predicate for h in sequent.hypotheses if h.selected)
    decision = decide(selected, sequent.goal, deadline, memo=memo)
    trace.append(TraceStep("decide", decision.reason))
    return decision


def worst_status(statuses: Iterable[str]) -> str:
    """The verdict of several goals together: unproved if any goal is,
    else unsupported if any goal is, else proved."""
    statuses = set(statuses)
    return next((s for s in (UNPROVED, UNSUPPORTED) if s in statuses), PROVED)


def prove_obligation(
    po: ProofObligation, *, options: ProveOptions = ProveOptions(), memo: Memo | None = None
) -> ProofResult:
    """Run the proof pipeline on one obligation.

    The obligation's own hint (``po.hint``) is applied to every leaf by
    `apply_hint`.  ``memo`` is handed to every `decide` call (see `Memo`).
    """
    deadline = time.perf_counter() + options.timeout_ms / 1000.0
    trace: list[TraceStep] = []
    leaves = _expand(po.sequent, trace)
    hint_applied = po.hint_applied

    hint = po.hint
    if hint is not None:
        applied = [apply_hint(s, hint) for s in leaves]
        if any(a is None for a in applied):  # only a use hint can fail
            trace.append(TraceStep("tacticSelect", f"{hint.label} not available"))
        else:
            leaves = [s for a in applied if a is not None for s in a]
            if hint.kind == USE_HYPOTHESIS:
                trace.append(TraceStep("tacticSelect", str(hint.label)))
            else:
                assert hint.predicate is not None
                trace.append(TraceStep("tacticCase", f"{print_formula(hint.predicate)}, {len(leaves)} subgoals"))
            hint_applied = print_hint(hint)

    if options.all_hyps:
        leaves = [s.select(set(s.labels())) for s in leaves]
        trace.append(TraceStep("selectAll"))
    elif options.lasso:
        lassoed: list[Sequent] = []
        added = 0
        for s in leaves:
            widened, n = tactic_lasso(s)
            lassoed.append(widened)
            added += n
        leaves = lassoed
        trace.append(TraceStep("tacticLasso", f"selected {added} more"))

    statuses: list[str] = []
    counterexample = None
    reasons: list[str] = []
    for s in leaves:
        decision = _close(s, deadline, trace, memo)
        statuses.append(decision.status)
        reasons.append(decision.reason)
        if counterexample is None and decision.counterexample is not None:
            counterexample = decision.counterexample

    status = worst_status(statuses)
    reason = "; ".join(dict.fromkeys(reasons)) if reasons else "no goals"

    selected_labels = sorted({label for s in leaves for label in s.selected_labels()})
    return ProofResult(
        name=po.name,
        kind=po.kind,
        status=status,
        reason=reason,
        selected_labels=tuple(selected_labels),
        hint_applied=hint_applied,
        trace=tuple(trace),
        counterexample=counterexample,
    )
