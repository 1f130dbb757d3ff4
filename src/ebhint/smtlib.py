"""SMT-LIB 2 export of proof obligations.

The sequent is normalised first: deterministic before-after equations
are inlined, so the script talks about pre-state variables wherever
possible.  Identifiers that only exist after the transition keep their
prime and are quoted (``|x'|``).  Declared carrier sets become
uninterpreted Int -> Bool functions.
"""

from __future__ import annotations

from .formula import (
    BINARY,
    Comparison,
    Falsity,
    Formula,
    Ident,
    IntLiteral,
    IntSet,
    Membership,
    Minus,
    NatSet,
    Not,
    Quantifier,
    SetLiteral,
    Truth,
    free_identifiers,
    named_sets,
    walk,
)
from .model import Hypothesis, ProofObligation
from .pog import normalize_deterministic_ba


def _symbol(key: str) -> str:
    return f"|{key}|" if key.endswith("'") else key


def _int(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def _term(f: Formula) -> str:
    if isinstance(f, IntLiteral):
        return _int(f.value)
    if isinstance(f, Ident):
        return _symbol(f.key)
    if isinstance(f, Minus):
        return f"(- {_term(f.operand)})"
    op = BINARY.get(type(f))
    if op is not None:
        return f"({op.smt} {_term(f.left)} {_term(f.right)})"
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsity):
        return "false"
    if isinstance(f, Not):
        return f"(not {_term(f.operand)})"
    if isinstance(f, Comparison):
        left, right = _term(f.left), _term(f.right)
        if f.op == "/=":
            return f"(not (= {left} {right}))"
        return f"({f.op} {left} {right})"
    if isinstance(f, Membership):
        element = _term(f.element)
        if isinstance(f.container, NatSet):
            return f"(<= 0 {element})"
        if isinstance(f.container, IntSet):
            return "true"
        if isinstance(f.container, SetLiteral):
            eqs = [f"(= {element} {_term(e)})" for e in f.container.elements]
            if not eqs:
                return "false"
            return eqs[0] if len(eqs) == 1 else "(or " + " ".join(eqs) + ")"
        if isinstance(f.container, Ident):
            return f"({_symbol(f.container.key)} {element})"
        raise ValueError(f"cannot export membership container {f.container!r}")
    if isinstance(f, Quantifier):
        kind = "exists" if f.kind == "exists" else "forall"
        binders = " ".join(f"({_symbol(b.key)} Int)" for b in f.binders)
        return f"({kind} ({binders}) {_term(f.body)})"
    raise ValueError(f"cannot export {f!r}")


def export_smt(po: ProofObligation, respect_selection: bool = False) -> str:
    """Render an obligation as an SMT-LIB 2 script.

    The goal is asserted negated, so ``unsat`` means the obligation
    holds.  With ``respect_selection`` only selected hypotheses are
    asserted.
    """
    sequent = normalize_deterministic_ba(po.sequent)
    hyps: tuple[Hypothesis, ...] = tuple(
        h for h in sequent.hypotheses if h.selected or not respect_selection
    )
    formulas = [h.predicate for h in hyps] + [sequent.goal]

    sets = set().union(*map(named_sets, formulas))
    has_quantifier = any(isinstance(node, Quantifier) for f in formulas for node in walk(f))
    consts = sorted(set().union(*[free_identifiers(f) for f in formulas]) - sets)

    logic = ("" if has_quantifier else "QF_") + ("UFLIA" if sets else "LIA")
    lines = [f"; {po.name}", f"(set-logic {logic})"]
    for key in consts:
        lines.append(f"(declare-const {_symbol(key)} Int)")
    for key in sorted(sets):
        lines.append(f"(declare-fun {_symbol(key)} (Int) Bool)")
    for h in hyps:
        lines.append(f"; {h.label}")
        lines.append(f"(assert {_term(h.predicate)})")
    lines.append("; goal")
    lines.append(f"(assert (not {_term(sequent.goal)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
