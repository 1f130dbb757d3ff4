"""Formula trees shared by models, proof obligations, and the prover.

A single recursive node type covers both predicates and integer
expressions; the well-formedness checker decides which is legal where.
Nodes are slotted records (see `ebhint.record`): immutable, and
compared structurally, with source locations excluded from equality so
parse / pretty-print round trips can be checked with ``==``.

Primed identifiers (post-state values such as ``x'``) are ordinary
identifiers carrying a flag; a doubly primed identifier is not
representable.  Throughout the package identifiers are referred to by
their *key*: the name with a trailing apostrophe when primed.
"""

from __future__ import annotations

import operator
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .record import position, record


class Loc(NamedTuple):
    """1-based source position."""

    line: int
    column: int


@record(slots=True)
class Formula:
    """Base class of every predicate and expression node."""

    loc: Loc | None = position()


# The distinction is enforced by type checking, not by the class tree.
Predicate = Formula


# --- predicate nodes -------------------------------------------------------


@record(slots=True)
class Truth(Formula):
    pass


@record(slots=True)
class Falsity(Formula):
    pass


@record(slots=True)
class Not(Formula):
    operand: Formula


@record(slots=True)
class And(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Comparison(Formula):
    op: str
    left: Formula
    right: Formula


@record(slots=True)
class Membership(Formula):
    element: Formula
    container: Formula


@record(slots=True)
class Quantifier(Formula):
    """``exists`` or ``forall`` over one or more integer identifiers."""

    kind: str  # "exists" | "forall"
    binders: tuple[Ident, ...]
    body: Formula


# --- expression nodes ------------------------------------------------------


@record(slots=True)
class IntLiteral(Formula):
    value: int


@record(slots=True)
class Ident(Formula):
    name: str
    primed: bool = False

    @property
    def key(self) -> str:
        return self.name + "'" if self.primed else self.name


@record(slots=True)
class Minus(Formula):
    """Unary arithmetic negation."""

    operand: Formula


@record(slots=True)
class Add(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Sub(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Mul(Formula):
    """Multiplication; well-formedness requires one literal operand."""

    left: Formula
    right: Formula


@record(slots=True)
class SetLiteral(Formula):
    elements: tuple[Formula, ...]


@record(slots=True)
class NatSet(Formula):
    """The natural numbers (membership means >= 0)."""


@record(slots=True)
class IntSet(Formula):
    """The integers (membership is trivially true)."""


class Operator(NamedTuple):
    spelling: str  # canonical ASCII
    level: int  # precedence: a larger level binds tighter
    right: bool  # groups to the right
    smt: str  # the SMT-LIB 2 function
    apply: Callable  # the Python function, on the operands' values


#: The binary operators by node class, the table that the parser, the
#: printer, the type checker, `evaluate` and the SMT-LIB export read.
#: Three levels are not binary operators: ``not``, the comparisons with
#: ``in`` (non-associative), and unary minus.
BINARY: dict[type, Operator] = {
    Iff: Operator("<=>", 1, True, "=", operator.eq),
    Implies: Operator("=>", 2, True, "=>", operator.le),  # on bools, a <= b is a => b
    Or: Operator("or", 3, False, "or", operator.or_),
    And: Operator("&", 4, False, "and", operator.and_),
    Add: Operator("+", 7, False, "+", operator.add),
    Sub: Operator("-", 7, False, "-", operator.sub),
    Mul: Operator("*", 8, False, "*", operator.mul),
}
NOT_LEVEL, COMPARISON_LEVEL, MINUS_LEVEL = 5, 6, 9

#: The comparison operators by canonical ASCII spelling.
COMPARISONS: dict[str, Callable[[int, int], bool]] = {
    "=": operator.eq,
    "/=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The keyword of each node class that is a formula on its own, the
#: table that the parser and the printer read.
CONSTANTS: dict[type, str] = {Truth: "true", Falsity: "false", NatSet: "NAT", IntSet: "INT"}

_UNARY = (Not, Minus)


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, binders excluded."""
    if type(f) in BINARY:
        return (f.left, f.right)
    if isinstance(f, _UNARY):
        return (f.operand,)
    if isinstance(f, Comparison):
        return (f.left, f.right)
    if isinstance(f, Membership):
        return (f.element, f.container)
    if isinstance(f, Quantifier):
        return (f.body,)
    if isinstance(f, SetLiteral):
        return f.elements
    return ()


def walk(f: Formula) -> Iterator[Formula]:
    """Yield every node of the tree, preorder."""
    yield f
    for c in children(f):
        yield from walk(c)


def named_sets(f: Formula) -> set[str]:
    """The keys of the identifiers that ``f`` uses as a membership
    container: the named sets it mentions."""
    return {n.container.key for n in walk(f) if isinstance(n, Membership) and isinstance(n.container, Ident)}


def free_identifiers(f: Formula) -> frozenset[str]:
    """Free identifier keys.  Primed and unprimed occurrences are distinct."""
    if isinstance(f, Ident):
        return frozenset((f.key,))
    if isinstance(f, Quantifier):
        bound = frozenset(b.key for b in f.binders)
        return free_identifiers(f.body) - bound
    out: frozenset[str] = frozenset()
    for c in children(f):
        out |= free_identifiers(c)
    return out


def _rebuild(f: Formula, new: tuple[Formula, ...]) -> Formula:
    """``f`` over the subformulas ``new``, in the order `children` gives."""
    if isinstance(f, Comparison):
        return Comparison(f.op, *new, loc=f.loc)
    if isinstance(f, SetLiteral):
        return SetLiteral(new, loc=f.loc)
    return type(f)(*new, loc=f.loc)


def numbered(base: str) -> Iterator[str]:
    """``base1``, ``base2``, ...: the spellings a fresh name is taken from."""
    return (f"{base}{i}" for i in count(1))


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace free identifiers by formulas, keyed by identifier key.

    Capture avoiding: quantifier binders shadow the mapping and are
    renamed when a replacement would be captured.
    """
    if not mapping:
        return f
    if isinstance(f, Ident):
        return mapping.get(f.key, f)
    if isinstance(f, Quantifier):
        bound = frozenset(b.key for b in f.binders)
        live = {k: v for k, v in mapping.items() if k not in bound and k in free_identifiers(f.body)}
        if not live:
            return f
        incoming = frozenset().union(*(free_identifiers(v) for v in live.values()))
        binders = list(f.binders)
        body = f.body
        for i, b in enumerate(binders):
            if b.key in incoming:
                taken = incoming | free_identifiers(body) | frozenset(x.key for x in binders) | frozenset(live)
                nb = next(c for c in (Ident(n, b.primed) for n in numbered(b.name)) if c.key not in taken)
                body = substitute(body, {b.key: nb})
                binders[i] = nb
        return Quantifier(f.kind, tuple(binders), substitute(body, live), loc=f.loc)
    subs = children(f)
    if not subs:
        return f
    return _rebuild(f, tuple(substitute(c, mapping) for c in subs))


def prime(f: Formula, names: Iterable[str]) -> Formula:
    """Prime every free unprimed occurrence of the given variable names."""
    return substitute(f, {n: Ident(n, primed=True) for n in names})


def balanced(join: Callable, items: list):
    """The formulas joined by ``join`` (`And` or `Or`), in order, as a
    tree of depth ceil(log2 n), so that the recursive walkers of
    formulas stay shallow on long chains (`conjunction`,
    `disjunction`)."""
    while len(items) > 1:
        items = [join(*items[i : i + 2]) if i + 1 < len(items) else items[i] for i in range(0, len(items), 2)]
    return items[0]


def conjunction(preds: Iterable[Predicate]) -> Predicate:
    items = list(preds)
    return balanced(And, items) if items else Truth()


def disjunction(preds: Iterable[Predicate]) -> Predicate:
    items = list(preds)
    return balanced(Or, items) if items else Falsity()


class Unevaluable(Exception):
    """Raised when a formula cannot be evaluated under a valuation."""


def evaluate(f: Formula, valuation: Mapping[str, int]):
    """Evaluate a quantifier-free formula under an integer valuation.

    Predicates yield bool, expressions int.  Both operands of every
    binary operator are evaluated, of ``&``, ``or`` and ``=>`` too, so
    ``false & x in S`` raises like ``x in S`` does.  Membership in a
    named set and quantifiers raise :class:`Unevaluable`.
    """
    op = BINARY.get(type(f))
    if op is not None:
        return op.apply(evaluate(f.left, valuation), evaluate(f.right, valuation))
    if isinstance(f, (Truth, Falsity)):
        return isinstance(f, Truth)
    if isinstance(f, IntLiteral):
        return f.value
    if isinstance(f, Ident):
        try:
            return valuation[f.key]
        except KeyError:
            raise Unevaluable(f"no value for {f.key}") from None
    if isinstance(f, Minus):
        return -evaluate(f.operand, valuation)
    if isinstance(f, Not):
        return not evaluate(f.operand, valuation)
    if isinstance(f, Comparison):
        return COMPARISONS[f.op](evaluate(f.left, valuation), evaluate(f.right, valuation))
    if isinstance(f, Membership):
        e = evaluate(f.element, valuation)
        c = f.container
        if isinstance(c, NatSet):
            return e >= 0
        if isinstance(c, IntSet):
            return True
        if isinstance(c, SetLiteral):
            return any(e == evaluate(x, valuation) for x in c.elements)
        raise Unevaluable("membership in a named set is not evaluable")
    if isinstance(f, Quantifier):
        raise Unevaluable("quantified formulas are not evaluable")
    raise AssertionError(f"unhandled node {type(f).__name__}")
