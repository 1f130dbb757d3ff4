"""Hint-aware tactic prover.

A sequent is first expanded with the safe structural tactics
(implication introduction, conjunction splitting, one-point rule), then
hints widen the hypothesis selection or split the proof into cases, and
each remaining leaf is closed either syntactically or by `decide`.

The hint interpreter is `apply_hint` (`tactic_select` for a use hint,
`case_sequents` for a split): `prove_obligation` runs it on each leaf in
tactic mode, and `apply_hints_pog` rewrites the obligations in pog mode.

`decide` refutes the conjunction of the selected hypotheses and the
negated goal.  Membership is elaborated into arithmetic (memberships in
declared carrier sets stay opaque), and the result is put in negation
normal form over linear atoms, with n-ary "and" and "or" nodes.
Simplifying a tree folds its constants and splices each child of a
node's own kind into the node, so the whole sequent is one flat
conjunction.  A lazy DPLL(T) search then looks for a propositional
model.  Before it branches, each search node runs one propagation loop
to a fixpoint: it assigns every literal child of that root (unit
propagation), checks the rows of the linear literals it assigned over
the integers, so an arithmetically inconsistent node is pruned with its
whole subtree, and after a difference-graph check assigns the literals
the graph already decides (theory propagation, one tick per round).
A search node carries its own state: its simplified tree, its theory
state, which extends its parent's, and the literals assigned at it.
Rows keep integer coefficients divided by their gcd, the bound rounded
down.  While a path's rows are all bounds and unit differences, its
theory state is a difference graph with integer potentials, and one
bounded Dijkstra pass on their reduced costs (`_reach`) both repairs
them and answers theory propagation; the first row of another kind
switches it to a Fourier-Motzkin row set (coefficients -> tightest
bound), which each node copies, extends and eliminates again.  A check
ticks once per variable (Fourier-Motzkin stops at the stage that gives a
false row), and a model's sample comes from one Fourier-Motzkin
back-substitution.
The clock is read at each tick and, as a stage ticks only when it ends,
once per lower-bound row of an elimination, where the rows gathered
for the next stage so far count toward the cap as well.
Hypothesis NNFs are kept in a `Memo`, which one `prove` run shares
across its obligations.

The procedure is sound but incomplete: PROVED is trustworthy, UNPROVED
may just mean "too hard", and counterexamples are only reported when
they check out against the selected hypotheses.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .diagnostics import Diagnostic
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
    conjunction,
    evaluate,
    free_identifiers,
    named_sets,
    substitute,
)
from .model import (
    Hint,
    Hypothesis,
    PoSet,
    ProofObligation,
    Sequent,
    USE_HYPOTHESIS,
)
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


class _Stop(Exception):
    """Ends `decide` with a verdict: a formula it cannot handle, or the
    branch cap or the deadline reached."""

    def __init__(self, status: str, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


# --- linear atoms -------------------------------------------------------------

# A linear atom is sum(coeff * var) <= bound with integer coefficients,
# keyed by ((var, coeff), ...) sorted by name plus the bound; a
# Fourier-Motzkin row has the same shape.
_Row = tuple[tuple[tuple[str, int], ...], int]
# A linear form: sum(coeff * var) + constant.
_Linear = tuple[dict[str, int], int]


def _linear(e: Formula) -> _Linear:
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
        raise _Stop(UNSUPPORTED, "nonlinear multiplication")
    raise _Stop(UNSUPPORTED, f"set-valued term in arithmetic position: {print_formula(e)}")


def _atom(diff_coeffs: dict[str, int], bound: int):
    """Normalised leaf for sum(coeffs) <= bound; constant atoms fold."""
    tightened = _tighten(diff_coeffs, bound)
    if tightened is None:
        return ("true",)
    if not tightened[0]:
        return ("false",)
    return ("lit", ("lin",) + tightened, True)


def _minus(left: _Linear, right: _Linear) -> _Linear:
    """The linear form left - right of two linear forms."""
    coeffs = dict(left[0])
    for k, v in right[0].items():
        coeffs[k] = coeffs.get(k, 0) - v
    return coeffs, left[1] - right[1]


def _relation(op: str, difference: _Linear):
    """Tree for ``left op right``, given the linear form left - right."""
    coeffs, const = difference
    negated = {k: -v for k, v in coeffs.items()}
    if op == "<=":
        return _atom(coeffs, -const)
    if op == "<":
        return _atom(coeffs, -const - 1)
    if op == ">=":
        return _atom(negated, const)
    if op == ">":
        return _atom(negated, const - 1)
    if op == "=":
        return ("and", (_atom(coeffs, -const), _atom(negated, const)))
    return ("or", (_atom(coeffs, -const - 1), _atom(negated, const - 1)))


#: The comparison that holds exactly when the key does not.
_NEGATED = {"=": "/=", "/=": "=", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


def _nnf(f: Formula, positive: bool):
    """Negation normal form tree over linear and opaque literals.

    Nodes: ("and"|"or", children) with ``children`` a tuple,
    ("lit", key, polarity), ("true",), ("false",).  `_simplify` folds
    the constants and flattens nested nodes of one kind.
    """
    if isinstance(f, Truth):
        return ("true",) if positive else ("false",)
    if isinstance(f, Falsity):
        return ("false",) if positive else ("true",)
    if isinstance(f, Not):
        return _nnf(f.operand, not positive)
    if isinstance(f, And):
        op = "and" if positive else "or"
        return (op, (_nnf(f.left, positive), _nnf(f.right, positive)))
    if isinstance(f, Or):
        op = "or" if positive else "and"
        return (op, (_nnf(f.left, positive), _nnf(f.right, positive)))
    if isinstance(f, Implies):
        if positive:
            return ("or", (_nnf(f.left, False), _nnf(f.right, True)))
        return ("and", (_nnf(f.left, True), _nnf(f.right, False)))
    if isinstance(f, Iff):
        both = ("and", (_nnf(f.left, positive), _nnf(f.right, True)))
        neither = ("and", (_nnf(f.left, not positive), _nnf(f.right, False)))
        return ("or", (both, neither))
    if isinstance(f, Comparison):
        return _relation(f.op if positive else _NEGATED[f.op], _minus(_linear(f.left), _linear(f.right)))
    if isinstance(f, Membership):
        return _membership(f, positive)
    if isinstance(f, Quantifier):
        raise _Stop(UNSUPPORTED, f"quantified goal or hypothesis: {print_formula(f)}")
    raise _Stop(UNSUPPORTED, f"cannot decide {print_formula(f)}")


def _membership(f: Membership, positive: bool):
    if isinstance(f.container, NatSet):
        return _relation(">=" if positive else "<", _linear(f.element))
    if isinstance(f.container, IntSet):
        return ("true",) if positive else ("false",)
    if isinstance(f.container, SetLiteral):
        x = _linear(f.element)
        if positive:
            return ("or", tuple(_relation("=", _minus(x, _linear(e))) for e in f.container.elements))
        # e /= x rather than x /= e: the order of its two literals steers the search
        return ("and", tuple(_relation("/=", _minus(_linear(e), x)) for e in f.container.elements))
    if isinstance(f.container, Ident):
        key = ("set", f.container.key, f.element)
        return ("lit", key, positive)
    raise _Stop(UNSUPPORTED, f"membership in {print_formula(f.container)}")


# --- lazy DPLL(T) search ------------------------------------------------------


class Memo:
    """The NNF of each hypothesis, shared by the `decide` calls of one
    `prove` run.  Every entry is a pure function of its key, so verdicts
    and branch counts do not depend on what the memo holds."""

    def __init__(self) -> None:
        self.nnf: dict = {}


# Branches and theory ticks one `decide` call may visit: a check ticks
# once per variable, or up to the failing Fourier-Motzkin stage, and
# while a stage runs the rows gathered for the next one count as well.
BRANCH_CAP = 1 << 16


class _Search:
    """The budget of one `decide` call: `tick` counts branches and theory
    ticks toward `BRANCH_CAP` and reads the clock against the deadline.
    A search node carries its own literals and theory state."""

    def __init__(self, deadline: float | None) -> None:
        self.deadline = deadline
        self.visited = 0

    def tick(self, n: int = 1) -> None:
        self.visited += n
        if self.visited > BRANCH_CAP:
            self.visited = BRANCH_CAP + 1  # where ticking one at a time stops
            raise _Stop(UNPROVED, "branch cap exceeded")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _Stop(UNPROVED, "timeout")


def _simplify(tree, values: dict):
    """The tree under the literals of ``values``, folded and flattened in
    order: below its root it holds no constant and no node of its
    parent's kind."""
    head = tree[0]
    if head == "lit":
        value = values.get(tree[1])
        if value is None:
            return tree
        return ("true",) if value == tree[2] else ("false",)
    if head == "and":
        stop, neutral = ("false",), ("true",)
    elif head == "or":
        stop, neutral = ("true",), ("false",)
    else:
        return tree
    children: list = []
    for child in tree[1]:
        child = _simplify(child, values)
        if child == stop:
            return stop
        if child[0] == head:
            children.extend(child[1])
        elif child != neutral:
            children.append(child)
    if len(children) > 1:
        return (head, tuple(children))
    return children[0] if children else neutral


def _first_literal(tree):
    """The leftmost literal of a simplified tree that is not a constant:
    such a tree holds no constant below its root, so the first child of
    each node leads to it."""
    while tree[0] != "lit":
        tree = tree[1][0]
    return tree[1]


def _propagate(tree, values: dict, search: _Search, theory: _Graph | dict):
    """One search node: the parent's simplified tree and theory state,
    and ``values``, the literals assigned at this node (its branch
    literal, or nothing at the root).  One loop: simplify the tree under
    the literals just assigned; assign its unit literals, the literal
    children of its root conjunction, and repeat; check the rows of the
    linear literals assigned since the last check; after a graph check,
    never a Fourier-Motzkin one, assign the literals the graph implies
    (see `_implied`) and repeat, one tick per such round so that the cap
    and the deadline bound it.  Implied literals add no rows, as the
    graph entails them, and a node that adds no rows keeps its parent's
    checked state.  Returns the node's simplified tree and theory state,
    or None if it is dead."""
    search.tick()
    rows = _rows(values)
    while True:
        tree = _simplify(tree, values)
        if tree == ("false",):
            return None
        values = {}
        for child in tree[1] if tree[0] == "and" else (tree,):
            if child[0] == "lit" and values.setdefault(child[1], child[2]) != child[2]:
                return None
        if values:
            rows += _rows(values)
            continue
        if not rows:
            return tree, theory
        theory = _check(theory, rows, search)
        if theory is None:
            return None
        if tree == ("true",) or not isinstance(theory, _Graph):
            return tree, theory
        values = _implied(tree, theory)
        if not values:
            return tree, theory
        search.tick()
        rows = []


def _solve(tree, search: _Search):
    """Depth-first search for a model of the tree, branching on the first
    literal, True first.  Each open node whose False branch is still
    untried is kept on a list, as a path can be thousands of branches
    long.  Returns the theory state of the first model found, or None
    when there is none."""
    frames: list = []  # (tree, theory state, branch literal)
    node = _propagate(tree, {}, search, _ROOT)
    while True:
        if node is None:
            if not frames:
                return None
            tree, theory, key = frames.pop()
            value = False
        else:
            tree, theory = node
            if tree == ("true",):
                return theory
            key = _first_literal(tree)
            frames.append((tree, theory, key))
            value = True
        node = _propagate(tree, {key: value}, search, theory)


# --- theory check: difference graph and Fourier-Motzkin ----------------------

def _tighten(coeffs: dict[str, int], bound: int) -> _Row | None:
    """Divide by the gcd of the coefficients and floor the bound; all
    variables range over the integers.  Returns None for a trivially
    true constraint."""
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    if not coeffs:
        return ((), bound) if bound < 0 else None
    g = math.gcd(*coeffs.values())
    return tuple(sorted((k, v // g) for k, v in coeffs.items())), bound // g


def _rows(values: dict) -> list[_Row]:
    """The rows of the linear literals in ``values``."""
    rows = []
    for key, value in values.items():
        if key[0] == "lin":
            # `_atom` tightened the key; its negation stays tightened
            _, coeffs, bound = key
            rows.append((coeffs, bound) if value else (tuple((k, -v) for k, v in coeffs), -bound - 1))
    return rows


_ZERO = ""  # the vertex of bounds: x <= c is x - zero <= c


class _Graph(NamedTuple):
    """The theory state of a path whose rows are all bounds and unit
    differences (Cotton & Maler, SAT 2006): the row x_v - x_u <= w is
    the edge u -> v of weight w in ``succ`` (u -> {v: w}, the tightest),
    and the potentials ``pi`` satisfy pi[v] - pi[u] <= w on every edge.
    A state is never changed once built; a node copies what it writes."""

    pi: dict[str, int]
    succ: dict[str, dict[str, int]]


_ROOT = _Graph({}, {})


def _edge(row: _Row) -> tuple[str, str, int] | None:
    """The edge (u, v, w) of a bound or unit-difference row
    x_v - x_u <= w, None for a row of any other kind.  A tightened row
    of one variable is always a bound."""
    coeffs, bound = row
    if len(coeffs) == 1:
        (name, a), = coeffs
        return (_ZERO, name, bound) if a > 0 else (name, _ZERO, bound)
    if len(coeffs) == 2 and coeffs[0][1] * coeffs[1][1] == -1:
        (x, a), (y, _) = coeffs
        return (y, x, bound) if a > 0 else (x, y, bound)
    return None


def _graph_rows(graph: _Graph) -> dict:
    """The rows of a graph's edges (coefficients -> bound)."""
    return {
        tuple(sorted((name, a) for name, a in ((v, 1), (u, -1)) if name != _ZERO)): w
        for u, out in graph.succ.items()
        for v, w in out.items()
    }


def _check(theory: _Graph | dict, rows: list[_Row], search: _Search) -> _Graph | dict | None:
    """The node's theory state: the last one it checked, its parent's at
    first, with ``rows`` added, or None when they make it infeasible.
    A graph state becomes a Fourier-Motzkin one, its rows as the
    starting dict, once a row of another kind arrives."""
    if isinstance(theory, _Graph):
        edges = [_edge(row) for row in rows]
        if None not in edges:
            return _relax(theory, edges, search)
        theory = _graph_rows(theory)
    return _extend(theory, rows, search)


def _relax(graph: _Graph, edges: list, search: _Search) -> _Graph | None:
    """The graph with ``edges`` added, or None when one closes a
    negative cycle.  An edge u -> v of weight w that the potentials
    satisfy costs nothing more.  Otherwise its reduced cost, the gap
    pi[u] + w - pi[v], is negative, and a vertex s must drop when the
    gap plus its reduced distance d from v stays negative: `_reach`
    from v within -gap - 1 finds them.  Reaching u means the edge
    closes a negative cycle; else each s drops to pi[s] + gap + d.
    Ticks once per variable either way, as a graph has no stages."""
    pi, succ = graph
    new = {name for u, v, _ in edges for name in (u, v) if name not in pi}
    if new:
        pi = {**pi, **dict.fromkeys(new, 0)}
    ticks = len(pi) - (_ZERO in pi)
    owned: set[str] = set()  # the successor maps this node has copied
    for u, v, w in edges:
        out = succ.get(u)
        if out is not None and out.get(v, w + 1) <= w:
            continue
        if u not in owned:
            if not owned:
                succ = dict(succ)
            owned.add(u)
            out = succ[u] = dict(out) if out else {}
        out[v] = w
        gap = pi[u] + w - pi[v]
        if gap >= 0:
            continue
        reached = _reach(_Graph(pi, succ), v, -gap - 1)
        if u in reached:
            search.tick(ticks)
            return None
        pi = {**pi, **{s: pi[s] + gap + d for s, d in reached.items()}}
    search.tick(ticks)
    return _Graph(pi, succ)


def _reach(graph: _Graph, source: str, limit: int) -> dict[str, int]:
    """The reduced-cost distance from ``source`` of each vertex within
    ``limit`` of it, by Dijkstra on the costs pi[u] + w - pi[v] of the
    edges u -> v, which the potentials keep non-negative.  During a
    repair (`_relax`) the one new edge u -> v may cost less than 0; it
    is never followed, as v is the source and so reached first."""
    pi, succ = graph
    reached: dict[str, int] = {}
    heap = [(0, source)]
    while heap:
        d, s = heapq.heappop(heap)
        if s in reached:
            continue
        reached[s] = d
        for t, w in succ.get(s, {}).items():
            dt = d + pi[s] + w - pi[t]
            if dt <= limit and t not in reached:
                heapq.heappush(heap, (dt, t))
    return reached


def _implied(tree, graph: _Graph) -> dict:
    """The bound and unit-difference literals of the tree that the graph
    decides (Cotton & Maler, SAT 2006).  The literal x_v - x_u <= w is
    true when the graph's path u -> v is at most w long, and false when
    its path v -> u is shorter than -w, as the edge would close a
    negative cycle.  The potentials satisfy whatever the graph entails,
    so the edge's reduced cost pi[u] + w - pi[v] tells which of the two
    can hold: at least 0, the path u -> v within it in reduced costs; or
    below 0, the path v -> u within its negation's reduced cost.  One
    Dijkstra pass per source answers its queries."""
    pi = graph.pi
    queries: dict[str, list] = {}  # source -> [(target, limit, key, value)]
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] != "lit":
            stack.extend(node[1])
            continue
        key = node[1]
        if key[0] != "lin" or key in seen or (edge := _edge(key[1:])) is None:
            continue
        seen.add(key)
        u, v, w = edge
        if u in pi and v in pi:
            gap = pi[u] + w - pi[v]
            if gap >= 0:
                queries.setdefault(u, []).append((v, gap, key, True))
            else:
                queries.setdefault(v, []).append((u, -gap - 1, key, False))
    implied = {}
    for source, targets in queries.items():
        reached = _reach(graph, source, max(limit for _, limit, _, _ in targets))
        for target, limit, key, value in targets:
            if reached.get(target, limit + 1) <= limit:
                implied[key] = value
    return implied


def _extend(rows: dict, new: list[_Row], search: _Search) -> dict | None:
    """The Fourier-Motzkin state (coefficients -> tightest bound) with
    the ``new`` rows added, or None when they make it infeasible.  Ticks
    once per variable in sorted order up to the first that gives a false
    row; elimination never combines rows that share no variable, so that
    variable does not depend on which other such parts the state holds.
    A state is never changed once built."""
    rows = dict(rows)
    for coeffs, bound in new:
        # of two rows with equal coefficients the tighter one implies
        # the other, so only that one is kept
        if rows.get(coeffs, bound) >= bound:
            rows[coeffs] = bound
    stages, feasible = _eliminate(rows, search)
    search.tick(len(stages))
    return rows if feasible else None


def _eliminate(rows: dict, search: _Search) -> tuple[list[tuple[str, dict]], bool]:
    """Eliminate the variables of ``rows`` in sorted order (a row holds
    the one being eliminated as its first coefficient).  Returns the
    stages, each variable with the rows it was eliminated from, up to
    the one that gave a false row, and whether no stage did."""
    stages: list[tuple[str, dict]] = []
    current = rows
    for name in sorted({name for coeffs in rows for name, _ in coeffs}):
        stages.append((name, current))
        lowers, uppers, rest = [], [], {}
        for coeffs, bound in current.items():
            if coeffs[0][0] != name:
                rest[coeffs] = bound
            elif coeffs[0][1] > 0:
                uppers.append((coeffs, bound))
            else:
                lowers.append((coeffs, bound))
        for lc, lb in lowers:
            la = -lc[0][1]
            search.tick(0)  # a stage ticks only when it ends; read the clock meanwhile
            if search.visited + len(rest) > BRANCH_CAP:
                search.tick(BRANCH_CAP)  # the next stage's rows count toward the cap
            for uc, ub in uppers:
                ua = uc[0][1]
                combined = {k: v * la for k, v in uc[1:]}
                for k, v in lc[1:]:
                    combined[k] = combined.get(k, 0) + v * ua
                c = _tighten(combined, ub * la + lb * ua)
                if c is not None:
                    coeffs, bound = c
                    if not coeffs:
                        return stages, False
                    if rest.get(coeffs, bound) >= bound:
                        rest[coeffs] = bound
        current = rest
    return stages, True


def _sample(theory: _Graph | dict, search: _Search) -> dict[str, int] | None:
    """The integer sample of a feasible state by Fourier-Motzkin
    back-substitution, None when it is not integral.  A graph's sample
    always is."""
    rows = _graph_rows(theory) if isinstance(theory, _Graph) else theory
    stages, _ = _eliminate(rows, search)
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
            return None
        sample[name] = value
    return sample


# --- the decision entry point ---------------------------------------------------


def decide(
    hypotheses: tuple[Predicate, ...],
    goal: Predicate,
    deadline: float | None = None,
    memo: Memo | None = None,
) -> Decision:
    """Validity of hypotheses |- goal, by refuting their conjunction with
    the negated goal, within `BRANCH_CAP` branches.  A ``memo`` shared
    by several calls saves the NNF of their common hypotheses."""
    try:
        trees = [_nnf(goal, False)]
        for h in reversed(hypotheses):
            if memo is None:  # hashing a predicate costs a seventh of its NNF
                trees.append(_nnf(h, True))
            else:
                trees.append(memo.nnf.get(h) or memo.nnf.setdefault(h, _nnf(h, True)))
        search = _Search(deadline)
        theory = _solve(("and", tuple(trees[::-1])), search)
        if theory is None:
            return Decision(PROVED, "no countermodel")
        if any(named_sets(f) for f in hypotheses + (goal,)):
            return Decision(UNPROVED, "countermodel constrains opaque set memberships")
        sample = _sample(theory, search)
    except _Stop as stop:
        return Decision(stop.status, stop.reason)
    if sample is None:
        return Decision(UNPROVED, "countermodel is not integral")
    names = sorted(set().union(*[free_identifiers(f) for f in hypotheses + (goal,)]))
    valuation = {n: sample.get(n, 0) for n in names}
    # named-set memberships returned above, `_nnf` stopped at quantifiers,
    # and the valuation covers every free identifier: nothing is unevaluable
    ok = all(evaluate(h, valuation) for h in hypotheses) and not evaluate(goal, valuation)
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
    # each pass eliminates the first binder, in binder order, that a
    # conjunct pins, by the first such conjunct
    while pinned := next(
        (
            (b, i, term)
            for b in binders
            for i, c in enumerate(conjuncts)
            if (term := _solved_by_equation(c, b.key)) is not None
        ),
        None,
    ):
        b, i, term = pinned
        rest = conjuncts[:i] + conjuncts[i + 1 :]
        conjuncts = [substitute(p, {b.key: term}) for p in rest]
        binders.remove(b)
    if len(binders) == len(goal.binders):
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
                out.append(ProofObligation(po.name + suffix, po.kind, seq, print_hint(hint)))
    return PoSet(poset.source_machine, tuple(out)), diags


def _expand(sequent: Sequent, trace: list[TraceStep]) -> list[Sequent]:
    """Apply intro, conjunction splitting and the one-point rule until
    none of them fires, depth first."""
    intro_result = intro(sequent)
    if intro_result is not None:
        trace.append(TraceStep("intro", intro_result.hypotheses[-1].label))
        return _expand(intro_result, trace)
    halves = split_conjunction(sequent)
    if halves is not None:
        trace.append(TraceStep("splitConjunction", "2 subgoals"))
        return _expand(halves[0], trace) + _expand(halves[1], trace)
    pinned = one_point(sequent.goal)
    if pinned is not None:
        trace.append(TraceStep("onePoint"))
        return _expand(sequent.with_goal(pinned), trace)
    return [sequent]


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
        lassoed = [tactic_lasso(s) for s in leaves]
        leaves = [s for s, _ in lassoed]
        trace.append(TraceStep("tacticLasso", f"selected {sum(n for _, n in lassoed)} more"))

    # `_expand` and `apply_hint` leave at least one leaf to decide
    decisions = [_close(s, deadline, trace, memo) for s in leaves]
    return ProofResult(
        name=po.name,
        kind=po.kind,
        status=worst_status(d.status for d in decisions),
        reason="; ".join(dict.fromkeys(d.reason for d in decisions)),
        selected_labels=tuple(sorted({label for s in leaves for label in s.selected_labels()})),
        hint_applied=hint_applied,
        trace=tuple(trace),
        counterexample=next((d.counterexample for d in decisions if d.counterexample is not None), None),
    )
