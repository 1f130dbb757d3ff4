"""Deterministic pretty-printing of formulas, machines, and contexts.

Output is canonical ASCII and parses back to a structurally identical
tree.  Parentheses are minimal with respect to the parser's precedence
table.
"""

from __future__ import annotations

from .formula import (
    BINARY,
    COMPARISON_LEVEL,
    CONSTANTS,
    MINUS_LEVEL,
    NOT_LEVEL,
    Comparison,
    Formula,
    Ident,
    IntLiteral,
    Membership,
    Minus,
    Not,
    Quantifier,
    SetLiteral,
)
from .model import (
    ASSIGNMENT_OPERATORS,
    Assignment,
    Context,
    Event,
    Hint,
    LabeledPredicate,
    Machine,
    SPLIT_CASE,
    Witness,
)


def _level(f: Formula) -> int:
    """The precedence of ``f``'s outermost operator: a quantifier is
    looser than every operator, so it is bracketed as an operand, and
    an atom is tighter."""
    op = BINARY.get(type(f))
    if op is not None:
        return op.level
    if isinstance(f, Quantifier):
        return 0
    if isinstance(f, Not):
        return NOT_LEVEL
    if isinstance(f, (Comparison, Membership)):
        return COMPARISON_LEVEL
    if isinstance(f, Minus) or isinstance(f, IntLiteral) and f.value < 0:
        return MINUS_LEVEL
    return MINUS_LEVEL + 1


def _at(f: Formula, minimum: int) -> str:
    text = print_formula(f)
    return f"({text})" if _level(f) < minimum else text


def print_formula(f: Formula) -> str:
    op = BINARY.get(type(f))
    if op is not None:
        return f"{_at(f.left, op.level + op.right)} {op.spelling} {_at(f.right, op.level + (not op.right))}"
    keyword = CONSTANTS.get(type(f))
    if keyword is not None:
        return keyword
    if isinstance(f, IntLiteral):
        return str(f.value)
    if isinstance(f, Ident):
        return f.key
    if isinstance(f, SetLiteral):
        return "{" + ", ".join(print_formula(e) for e in f.elements) + "}"
    if isinstance(f, Minus):  # bracket a literal, or -3 would read back as one
        operand = _at(f.operand, MINUS_LEVEL)
        return f"-({operand})" if isinstance(f.operand, IntLiteral) and f.operand.value >= 0 else "-" + operand
    if isinstance(f, Comparison):
        return f"{_at(f.left, COMPARISON_LEVEL + 1)} {f.op} {_at(f.right, COMPARISON_LEVEL + 1)}"
    if isinstance(f, Membership):
        return f"{_at(f.element, COMPARISON_LEVEL + 1)} in {_at(f.container, COMPARISON_LEVEL + 1)}"
    if isinstance(f, Not):
        return "not " + _at(f.operand, NOT_LEVEL)
    if isinstance(f, Quantifier):
        binders = ", ".join(b.key for b in f.binders)
        return f"{f.kind} {binders} . {print_formula(f.body)}"
    raise AssertionError(f"unhandled node {type(f).__name__}")


def _labeled(out: list[str], keyword: str, items: tuple[LabeledPredicate, ...], indent: str) -> None:
    if not items:
        return
    out.append(f"{indent}{keyword}")
    for lp in items:
        out.append(f"{indent}  {lp.label}: {print_formula(lp.predicate)}")


def _print_witness(w: Witness) -> str:
    return f"{w.subject.key}: {print_formula(w.predicate)}"


def _print_action(a: Assignment) -> str:
    return f"{a.label}: {', '.join(a.targets)} {ASSIGNMENT_OPERATORS[a.kind]} {print_formula(a.rhs)}"


def print_hint(h: Hint) -> str:
    """The hint as written in a model, and as the ``hintApplied`` text."""
    if h.kind == SPLIT_CASE:
        return f"split case using {print_formula(h.predicate)} for {h.target}"
    return f"use {h.label} for {h.target}"


def _print_event(out: list[str], e: Event) -> None:
    head = "  initialisation" if e.is_initialisation else f"  event {e.name}"
    if e.refines:
        head += " refines " + ", ".join(e.refines)
    out.append(head)
    if e.parameters:
        out.append("  any " + " ".join(e.parameters))
    _labeled(out, "where", e.guards, "  ")
    _labeled(out, "thm", e.guard_theorems, "  ")
    if e.witnesses:
        out.append("  with")
        for w in e.witnesses:
            out.append(f"    {_print_witness(w)}")
    if e.actions:
        out.append("  then")
        for a in e.actions:
            out.append(f"    {_print_action(a)}")
    if e.hints:
        out.append("  hints")
        for h in e.hints:
            out.append(f"    {print_hint(h)}")
    out.append("  end")


def print_machine(m: Machine) -> str:
    out: list[str] = [f"machine {m.name}"]
    if m.refines:
        out.append(f"refines {m.refines}")
    if m.sees:
        out.append(f"sees {m.sees}")
    if m.variables:
        out.append("variables " + " ".join(m.variables))
    _labeled(out, "invariants", m.invariants, "")
    _labeled(out, "theorems", m.theorems, "")
    if m.initialisation or m.events:
        out.append("events")
        if m.initialisation:
            _print_event(out, m.initialisation)
        for e in m.events:
            _print_event(out, e)
    out.append("end")
    return "\n".join(out) + "\n"


def print_context(c: Context) -> str:
    out: list[str] = [f"context {c.name}"]
    if c.extends:
        out.append(f"extends {c.extends}")
    if c.sets:
        out.append("sets " + " ".join(c.sets))
    if c.constants:
        out.append("constants " + " ".join(c.constants))
    _labeled(out, "axioms", c.axioms, "")
    _labeled(out, "theorems", c.theorems, "")
    out.append("end")
    return "\n".join(out) + "\n"


def pretty_print(component: Machine | Context) -> str:
    """Canonical text for a machine or context; round-trips through parse."""
    if isinstance(component, Machine):
        return print_machine(component)
    return print_context(component)
