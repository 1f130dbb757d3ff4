"""`export-smt` scripts mean what their obligations mean.

A small reader and evaluator for the s-expressions that `export_smt`
prints, vectorised over points with numpy.  It is written from the
SMT-LIB side and shares no code with ``ebhint``.  At seeded points
over the script's constants, each ``assert`` must have the value of
the original hypothesis whose label precedes it, and the last one the
value of the negated goal (`oracle` evaluates the originals).  The
obligation's own identifiers that the script no longer has, the primed
names of the inlined before-after equations, get their values by the
rule that inlines them, written on values.
"""

from __future__ import annotations

import re
from functools import reduce

import numpy as np

import oracle
from conftest import FIXTURE_FILES, FIXTURES, MODELS
from ebhint.formula import Comparison, Ident
from ebhint.parser import load_model
from ebhint.pog import generate
from ebhint.prover import apply_hints_pog
from ebhint.smtlib import export_smt

POINTS = 64

_OPS = {
    "+": np.add,
    "*": np.multiply,
    "=": np.equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "not": np.logical_not,
    "=>": lambda a, b: np.logical_or(np.logical_not(a), b),
    "and": lambda *xs: reduce(np.logical_and, xs),
    "or": lambda *xs: reduce(np.logical_or, xs),
}


def read(text: str):
    """The s-expression in ``text``: a symbol is a str, a list a list."""
    stack: list[list] = [[]]
    for token in re.findall(r"\(|\)|\|[^|]*\||[^\s()]+", text):
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    (sexpr,) = stack[0]
    return sexpr


def value(sexpr, env: dict[str, np.ndarray]):
    """The value of a term or formula at every point of ``env``."""
    if isinstance(sexpr, str):
        if sexpr in ("true", "false"):
            return np.bool_(sexpr == "true")
        if sexpr.isdigit():
            return np.int64(int(sexpr))
        return env[sexpr.strip("|")]
    head, *args = sexpr
    values = [value(a, env) for a in args]
    if head == "-":
        return np.negative(values[0]) if len(values) == 1 else np.subtract(*values)
    return _OPS[head](*values)


def script_parts(script: str):
    """The ``declare-const`` names and the ``(label, assert body)`` pairs
    of a script, or None when it declares a function or quantifies."""
    consts: list[str] = []
    asserts: list[tuple[str, object]] = []
    label = None
    for line in script.splitlines():
        if line.startswith("; "):
            label = line[2:]
        elif line.startswith("(declare-fun") or re.search(r"\((exists|forall) ", line):
            return None
        elif line.startswith("(declare-const"):
            consts.append(read(line)[1].strip("|"))
        elif line.startswith("(assert"):
            asserts.append((label, read(line)[1]))
    return consts, asserts


def extend(hypotheses, env: dict[str, np.ndarray]) -> set[int]:
    """Give ``x'`` the value of ``E`` for the first ``BA:`` equation
    ``x' = E`` whose ``x'`` has no value yet and whose ``E`` can be
    evaluated, and again until none is left; the positions taken."""
    taken: set[int] = set()
    while True:
        for i, h in enumerate(hypotheses):
            p = h.predicate
            if (
                h.label.startswith("BA:")
                and isinstance(p, Comparison)
                and p.op == "="
                and isinstance(p.left, Ident)
                and p.left.primed
                and p.left.key not in env
                and oracle.collect_identifiers(p.right) <= env.keys()
            ):
                env[p.left.key] = np.broadcast_to(oracle._expr(p.right, env), (POINTS,))
                taken.add(i)
                break
        else:
            return taken


def obligations():
    paths = [FIXTURES / name for name in FIXTURE_FILES] + sorted(MODELS.glob("*.ebh"))
    for model, diags in map(load_model, paths):
        assert diags == [], diags
        poset = generate(model)
        yield from poset.obligations  # tactic mode
        yield from apply_hints_pog(poset)[0].obligations  # pog mode


def test_export_smt_scripts_mean_what_their_obligations_mean():
    rng = np.random.default_rng(7)
    checked = skipped = 0
    for po in obligations():
        parts = script_parts(export_smt(po))
        if parts is None:
            skipped += 1
            continue
        consts, asserts = parts
        env = {name: rng.integers(-3, 4, POINTS) for name in consts}
        hyps = po.sequent.hypotheses
        taken = extend(hyps, env)
        kept = [h for i, h in enumerate(hyps) if i not in taken]
        assert [label for label, _ in asserts] == [h.label for h in kept] + ["goal"], po.name
        for h, (_, body) in zip(kept, asserts):
            expected = np.broadcast_to(oracle._pred(h.predicate, env), (POINTS,))
            assert np.array_equal(np.broadcast_to(value(body, env), (POINTS,)), expected), (po.name, h.label)
        expected = np.broadcast_to(np.logical_not(oracle._pred(po.sequent.goal, env)), (POINTS,))
        assert np.array_equal(np.broadcast_to(value(asserts[-1][1], env), (POINTS,)), expected), po.name
        checked += 1
    assert (checked, skipped) == (147, 10)
