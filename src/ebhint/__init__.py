"""ebhint: a miniature verifier for hint-annotated machine models.

Parse machines and contexts, generate their proof obligations, and
discharge them with a small hint-aware tactic prover.
"""

from .diagnostics import Diagnostic
from .formula import Formula, Loc, Predicate
from .model import (
    Context,
    Event,
    Hint,
    Hypothesis,
    Machine,
    Model,
    PoSet,
    ProofObligation,
    Sequent,
)
from .parser import ParseError, load_model, parse_predicate, parse_source
from .pog import before_after, generate, normalize_deterministic_ba
from .printer import pretty_print, print_formula
from .prover import (
    Decision,
    ProofResult,
    ProveOptions,
    apply_hints_pog,
    case_sequents,
    decide,
    intro,
    one_point,
    prove_obligation,
    split_conjunction,
    tactic_cut,
    tactic_lasso,
    tactic_select,
)
from .record import replace
from .smtlib import export_smt
from .wellformed import check_new_events, wellformed

__all__ = [
    "Context",
    "Decision",
    "Diagnostic",
    "Event",
    "Formula",
    "Hint",
    "Hypothesis",
    "Loc",
    "Machine",
    "Model",
    "ParseError",
    "PoSet",
    "Predicate",
    "ProofObligation",
    "ProofResult",
    "ProveOptions",
    "Sequent",
    "apply_hints_pog",
    "before_after",
    "case_sequents",
    "check_new_events",
    "decide",
    "export_smt",
    "generate",
    "intro",
    "load_model",
    "normalize_deterministic_ba",
    "one_point",
    "parse_predicate",
    "parse_source",
    "pretty_print",
    "print_formula",
    "prove_obligation",
    "replace",
    "split_conjunction",
    "tactic_cut",
    "tactic_lasso",
    "tactic_select",
    "wellformed",
]

__version__ = "0.1.0"
