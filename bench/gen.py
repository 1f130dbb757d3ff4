"""Seeded input generators for the benchmark.

Every input is text: model files in the `.ebh` language and predicates
that `ebhint.parse_predicate` reads.  The generators use their own
`random.Random` and share no code with the test suite, so editing a
test cannot change a workload.  Each generator also returns the
reference the benchmark checks the program against, fixed by
construction and never obtained from the prover:

* `models`: the verdict of every root obligation, and for each
  obligation expected to stay unproved a state that refutes it;
* `frontend`: the obligation names from the counting law;
* `decide`: nothing; verdicts are checked against the grid oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PROVED = "proved"
UNPROVED = "unproved"

# --- models: the paper's patterns ---------------------------------------------


@dataclass
class Ev:
    name: str
    refines: tuple[str, ...] = ()
    guards: list[tuple[str, str]] = field(default_factory=list)
    thms: list[tuple[str, str]] = field(default_factory=list)
    witnesses: list[tuple[str, str]] = field(default_factory=list)
    actions: list[tuple[str, str, str]] = field(default_factory=list)  # label, target, text
    hints: list[str] = field(default_factory=list)

    def text(self) -> str:
        head = f"  event {self.name}"
        if self.refines:
            head += " refines " + ", ".join(self.refines)
        lines = [head]
        for section, items in (("where", self.guards), ("thm", self.thms)):
            if items:
                lines.append(f"  {section}")
                lines.extend(f"    {label}: {pred}" for label, pred in items)
        if self.witnesses:
            lines.append("  with")
            lines.extend(f"    {subject}: {pred}" for subject, pred in self.witnesses)
        if self.actions:
            lines.append("  then")
            lines.extend(f"    {label}: {text}" for label, _, text in self.actions)
        if self.hints:
            lines.append("  hints")
            lines.extend(f"    {h}" for h in self.hints)
        lines.append("  end")
        return "\n".join(lines)


@dataclass
class Piece:
    """One pattern instance over its own variables.

    ``unproved`` maps (event, invariant label) to a pre/post state that
    satisfies the obligation's selected hypotheses and refutes its goal;
    every other invariant obligation of the piece's events is provable.
    """

    variables: list[str]
    invariants: list[tuple[str, str]]
    events: list[Ev]
    unproved: dict[tuple[str, str], dict[str, int]] = field(default_factory=dict)


def _use_piece(i: int, rng: random.Random, variant: str) -> Piece:
    """Hypothesis selection (`use`), its guard-theorem workaround, or
    neither: the invariant x in NAT then stays unproved."""
    x, y = f"x{i}", f"y{i}"
    k1, k2 = sorted(rng.sample(range(1, 6), 2))
    c = rng.randint(0, 3)
    inv1, inv2 = f"u{i}_1", f"u{i}_2"
    ev = Ev(f"use{i}", guards=[("grd1", f"{x} in {{{k1}, {k2}}}")],
            actions=[("act1", x, f"{x} := {y} + {c}")])
    piece = Piece([x, y], [(inv1, f"{x} in NAT"), (inv2, f"{x} /= 0 => {y} in NAT")], [ev])
    if variant == "hint":
        ev.hints.append(f"use {inv2} for {inv1}")
    elif variant == "thm":
        ev.thms.append(("thm1", f"{x} /= 0 => {y} in NAT"))
    else:
        piece.unproved[(ev.name, inv1)] = {x: k1, y: -c - 1, x + "'": -1, y + "'": -c - 1}
    return piece


def _case_piece(i: int, rng: random.Random, variant: str) -> Piece:
    """An invariant that needs a case split on a = k, with the split
    and a `use` hint, or with neither (two invariants stay unproved)."""
    a, b, c = f"a{i}", f"b{i}", f"c{i}"
    k = rng.randint(-3, 3)
    inv1, inv2, inv3 = f"c{i}_1", f"c{i}_2", f"c{i}_3"
    ev = Ev(f"case{i}", actions=[("act1", a, f"{a} := {b} - 1")])
    piece = Piece(
        [a, b, c],
        [(inv1, f"{a} <= {c}"), (inv2, f"{a} /= {k} => {b} = {a} + 1"), (inv3, f"{a} = {k} => {b} <= {c}")],
        [ev],
    )
    if variant == "hint":
        ev.hints += [f"split case using {a} = {k} for {inv1}", f"use {inv2} for {inv3}"]
    else:
        piece.unproved[(ev.name, inv1)] = {a: 0, b: 5, c: 0, a + "'": 4, b + "'": 5, c + "'": 0}
        piece.unproved[(ev.name, inv3)] = {
            a: k - 3, b: k + 1, c: k, a + "'": k, b + "'": k + 1, c + "'": k,
        }
    return piece


USE_VARIANTS = ("hint", "thm", "hint", "bare")
CASE_VARIANTS = ("hint", "bare", "hint")


def _pieces(rng: random.Random, first: int, count: int) -> list[Piece]:
    """`count` pieces numbered from `first`.  The pattern alternates with
    the number and the variant follows a fixed cycle; the seed picks the
    constants only.  (Letting the seed also pick the variants moved the
    throughput by 20% between seeds.)"""
    out = []
    for i in range(first, first + count):
        if i % 2:
            out.append(_use_piece(i, rng, USE_VARIANTS[i // 2 % len(USE_VARIANTS)]))
        else:
            out.append(_case_piece(i, rng, CASE_VARIANTS[i // 2 % len(CASE_VARIANTS)]))
    return out


def _machine_text(name: str, variables, invariants, events, header_extra: str = "") -> str:
    lines = [f"machine {name}{header_extra}", "variables " + " ".join(variables), "invariants"]
    lines += [f"  {label}: {pred}" for label, pred in invariants]
    lines.append("events")
    lines += [e.text() for e in events]
    lines.append("end")
    return "\n".join(lines) + "\n"


@dataclass
class ModelCase:
    """One `ebhint prove` target and its reference."""

    target: str  # file name of the machine to prove
    files: dict[str, str]  # every file it needs, by name
    expected: dict[str, str]  # root obligation name -> verdict
    refutations: dict[str, dict[str, int]]  # unproved root obligation -> refuting state


def _plain_case(name: str, pieces: list[Piece]) -> ModelCase:
    variables = [v for p in pieces for v in p.variables]
    invariants = [inv for p in pieces for inv in p.invariants]
    events = [e for p in pieces for e in p.events]
    expected: dict[str, str] = {}
    refutations: dict[str, dict[str, int]] = {}
    for p in pieces:
        for e in p.events:
            for label, _ in e.thms:
                expected[f"{e.name}/{label}/THM"] = PROVED
            for label, _ in invariants:
                po = f"{e.name}/{label}/INV"
                state = p.unproved.get((e.name, label))
                expected[po] = PROVED if state is None else UNPROVED
                if state is not None:
                    refutations[po] = state
    text = _machine_text(name, variables, invariants, events)
    return ModelCase(f"{name}.ebh", {f"{name}.ebh": text}, expected, refutations)


def _refinement_cases(j: int, rng: random.Random, extra: list[Piece], hinted: bool) -> list[ModelCase]:
    """The split/merge refinement pair plus a disappearing variable
    behind a witness.

    The abstract machine splits `a := b - 1` into two guarded events
    (with `use` hints, or bare); the concrete machine merges them back,
    drops variable z behind witnesses, and glues it with z = u.
    """
    a, b, c, u, z = f"sa{j}", f"sb{j}", f"sc{j}", f"su{j}", f"sz{j}"
    k = rng.randint(-3, 3)
    s1, s2, s3, w1 = f"s{j}_1", f"s{j}_2", f"s{j}_3", f"w{j}_1"
    split = [
        (s1, f"{a} <= {c}"),
        (s2, f"{a} /= {k} => {b} = {a} + 1"),
        (s3, f"{a} = {k} => {b} <= {c}"),
    ]
    act = ("act1", a, f"{a} := {b} - 1")
    case1 = Ev(f"split{j}_1", guards=[("grd1", f"{a} = {k}")], actions=[act])
    case2 = Ev(f"split{j}_2", guards=[("grd1", f"{a} /= {k}")], actions=[act])
    tick = Ev(f"tick{j}", actions=[("az", z, f"{z} := {z} + 1"), ("au", u, f"{u} := {u} + 1")])
    split_piece = Piece([a, b, c], split, [case1, case2])
    if hinted:
        case1.hints.append(f"use {s3} for {s1}")
        case2.hints += [f"use {s2} for {s1}", f"use {s2} for {s3}"]
    else:
        split_piece.unproved = {
            (case1.name, s1): {a: k, b: k + 5, c: k, a + "'": k + 4, b + "'": k + 5, c + "'": k},
            (case2.name, s1): {a: k + 1, b: k + 7, c: k + 1, a + "'": k + 6, b + "'": k + 7, c + "'": k + 1},
            (case2.name, s3): {a: k - 1, b: k + 1, c: k, a + "'": k, b + "'": k + 1, c + "'": k},
        }
    wit_piece = Piece([u, z], [(w1, f"{z} in NAT")], [tick])
    pieces = [split_piece, wit_piece] + extra
    abstract = _plain_case(f"r{j}a", pieces)

    # concrete: every variable but z, own invariants over the split part
    m1, m2, m3, g = f"m{j}_1", f"m{j}_2", f"m{j}_3", f"g{j}"
    invariants = [
        (m1, split[0][1]),
        (m2, split[1][1]),
        (m3, split[2][1]),
        (g, f"{z} = {u}"),
    ]
    merge = Ev(f"set{j}", refines=(case1.name, case2.name), witnesses=[(z + "'", f"{z}' = {z}")],
               actions=[act], hints=[f"split case using {a} = {k} for {m1}", f"use {m2} for {m3}"])
    ctick = Ev(tick.name, refines=(tick.name,), witnesses=[(z + "'", f"{z}' = {z} + 1")],
               actions=[("au", u, f"{u} := {u} + 1")])
    copies = [
        Ev(e.name, refines=(e.name,), guards=list(e.guards), thms=list(e.thms),
           witnesses=[(z + "'", f"{z}' = {z}")], actions=list(e.actions))
        for p in extra for e in p.events
    ]
    abstract_vars = [v for p in pieces for v in p.variables]
    concrete_vars = [v for v in abstract_vars if v != z]
    events = [merge, ctick] + copies
    name = f"r{j}c"
    expected: dict[str, str] = {}
    abstract_events = {e.name: e for p in pieces for e in p.events}
    for e in events:
        for label, _ in e.thms:
            expected[f"{e.name}/{label}/THM"] = PROVED
        if len(e.refines) >= 2:
            expected[f"{e.name}/MRG"] = PROVED
        else:
            for label, _ in abstract_events[e.refines[0]].guards:
                expected[f"{e.name}/{label}/GRD"] = PROVED
        for subject, _ in e.witnesses:
            expected[f"{e.name}/{subject}/WFIS"] = PROVED
        assigned = {target: label for label, target, _ in abstract_events[e.refines[0]].actions}
        for v in abstract_vars:
            expected[f"{e.name}/{assigned.get(v, 'BA:' + v)}/SIM"] = PROVED
        for label, _ in invariants:
            expected[f"{e.name}/{label}/INV"] = PROVED
    text = _machine_text(name, concrete_vars, invariants, events, f" refines r{j}a")
    files = dict(abstract.files)
    files[f"{name}.ebh"] = text
    return [abstract, ModelCase(f"{name}.ebh", files, expected, {})]


# Reference verdicts of the fixture corpus (see tests/test_acceptance.py,
# criterion 5) and, for each unproved obligation, a refuting state.
FIXTURE_UNPROVED: dict[str, dict[str, dict[str, int]]] = {
    "case0_abstract.ebh": {
        "set_case1/case0_1/INV": {"A": 1, "B": 5, "C": 1, "A'": 4, "B'": 5, "C'": 1},
        "set_case2/case0_1/INV": {"A": 0, "B": 5, "C": 0, "A'": 4, "B'": 5, "C'": 0},
        "set_case2/case0_3/INV": {"A": 0, "B": 2, "C": 0, "A'": 1, "B'": 2, "C'": 0},
    },
    "case0_merge.ebh": {
        "set/minv0_1/INV": {"A": 0, "B": 5, "C": 0, "A'": 4, "B'": 5, "C'": 0},
        "set/minv0_3/INV": {"A": 0, "B": 2, "C": 0, "A'": 1, "B'": 2, "C'": 0},
    },
}
FIXTURE_OBLIGATIONS: dict[str, tuple[str, ...]] = {
    "hypSel0.ebh": ("set/hypSel0_1/INV", "set/hypSel0_2/INV"),
    "hypSel0_workaround.ebh": ("set/thm1/THM", "set/hypSel0_1/INV", "set/hypSel0_2/INV"),
    "case0.ebh": ("set/case0_1/INV", "set/case0_2/INV", "set/case0_3/INV"),
    "case0_abstract.ebh": tuple(
        f"{e}/case0_{n}/INV" for e in ("set_case1", "set_case2") for n in (1, 2, 3)
    ),
    "case0_merge.ebh": (
        "set/MRG", "set/act1/SIM", "set/BA:B/SIM", "set/BA:C/SIM",
        "set/minv0_1/INV", "set/minv0_2/INV", "set/minv0_3/INV",
    ),
}
FIXTURE_NEEDS = {"case0_merge.ebh": ("case0_abstract.ebh",)}


def fixture_cases(texts: dict[str, str]) -> list[ModelCase]:
    """The five fixtures, given their text by file name."""
    out = []
    for name, names in FIXTURE_OBLIGATIONS.items():
        unproved = FIXTURE_UNPROVED.get(name, {})
        expected = {po: (UNPROVED if po in unproved else PROVED) for po in names}
        files = {n: texts[n] for n in (name,) + FIXTURE_NEEDS.get(name, ())}
        out.append(ModelCase(name, files, expected, dict(unproved)))
    return out


# Pattern pieces per generated plain machine (2 to 6 variables), in a
# fixed cycle; 0 stands for a split/merge refinement pair.  Machines of
# three pieces are left out: each took 0.2 to 1.4 s a mode, depending on
# the seed's constants, and made the cost of a round depend on the seed.
# One-piece machines and the fixtures are the cheap third of the
# operations, so that the median latency falls inside the cluster of the
# larger machines and not on the gap below it.
MODEL_SHAPES = (1, 2, 2, 1, 2, 0)


def models_corpus(seed: int, count: int) -> list[ModelCase]:
    """`count` generated cases: plain machines of 1 or 2 pattern pieces,
    and split/merge refinement pairs (7 or 8 variables with the piece
    they carry), which count as two cases, abstract and concrete.  Sizes
    follow MODEL_SHAPES and variants fixed cycles, so that every seed
    has the same mix; the seed picks the constants."""
    rng = random.Random(seed)
    out: list[ModelCase] = []
    n = 0
    while len(out) < count:
        n += 1
        shape = MODEL_SHAPES[n % len(MODEL_SHAPES)]
        pieces = _pieces(rng, 100 * n + n // len(MODEL_SHAPES), max(shape, 1))
        if shape == 0:
            out += _refinement_cases(n, rng, pieces, n // len(MODEL_SHAPES) % 3 != 0)
        else:
            out.append(_plain_case(f"m{n}", pieces))
    return out[:count]


# --- frontend: large machines and a refinement chain ------------------------


@dataclass
class FrontCase:
    """A machine for `check`, `pos` and `export-smt`, with the
    obligation names (pog mode) the counting law predicts."""

    target: str
    files: dict[str, str]
    check_files: tuple[str, ...]
    names: list[str]


def _inv_text(rng: random.Random, variables: list[str]) -> str:
    v, w = rng.sample(variables, 2)
    pick = rng.random()
    if pick < 0.3:
        return f"{v} in NAT"
    if pick < 0.6:
        return f"{v} <= {w} + {rng.randint(0, 9)}"
    if pick < 0.8:
        return f"{v} + {w} <= {rng.randint(10, 99)}"
    return f"{v} /= {rng.randint(-5, 5)} => {w} in NAT"


def _random_event(rng: random.Random, name: str, variables: list[str], k: int) -> Ev:
    """Event number `k`: 1 or 2 guards and 1 to 3 actions by a fixed
    cycle, so that the obligations' size does not depend on the seed."""
    ev = Ev(name)
    for g in range(1 + k % 2):
        v = rng.choice(variables)
        ev.guards.append((f"grd{g + 1}", f"{v} <= {rng.randint(0, 50)}"))
    for n, v in enumerate(rng.sample(variables, 1 + k % 3)):
        if rng.random() < 0.8:
            ev.actions.append((f"act{n + 1}", v, f"{v} := {v} + {rng.randint(-2, 3)}"))
        else:
            ev.actions.append((f"act{n + 1}", v, f"{v} :: {{0, {rng.randint(1, 9)}}}"))
    return ev


def _add_hints(
    rng: random.Random, ev: Ev, variables: list[str], inv_labels: list[str], k: int
) -> set[str]:
    """Give every third event a split hint and a use hint; returns the
    split targets."""
    if k % 3:
        return set()
    target, other, used = rng.sample(inv_labels, 3)
    ev.hints.append(f"split case using {rng.choice(variables)} = {rng.randint(-2, 2)} for {target}")
    ev.hints.append(f"use {used} for {other}")
    return {target}


def _inv_names(event: str, inv_labels: list[str], split: set[str]) -> list[str]:
    out = []
    for label in inv_labels:
        root = f"{event}/{label}/INV"
        out += [root + "/case1", root + "/case2"] if label in split else [root]
    return out


def big_machine(rng: random.Random, name: str, nvars: int, ninvs: int, nevents: int) -> FrontCase:
    variables = [f"v{i + 1}" for i in range(nvars)]
    invariants = [(f"inv{i + 1}", _inv_text(rng, variables)) for i in range(ninvs)]
    labels = [lab for lab, _ in invariants]
    events, names = [], []
    for k in range(nevents):
        ev = _random_event(rng, f"e{k + 1}", variables, k)
        split = _add_hints(rng, ev, variables, labels, k)
        events.append(ev)
        names += _inv_names(ev.name, labels, split)
    file = f"{name}.ebh"
    text = _machine_text(name, variables, invariants, events)
    return FrontCase(file, {file: text}, (file,), names)


def refinement_chain(
    rng: random.Random, name: str, depth: int, nvars: int, ninvs: int, nevents: int
) -> list[FrontCase]:
    """A context and `depth` machines, each refining the previous one.

    Every level keeps the abstract variables, adds `nvars` new ones and
    `ninvs` invariants over them, refines each abstract event one to
    one (same guards and actions plus actions on new variables), and
    adds `nevents` new events that assign only new variables.
    """
    ctx = f"{name}_ctx"
    ctx_text = "\n".join([
        f"context {ctx}",
        "constants K1 K2 K3",
        "axioms",
        "  ax1: K1 in NAT",
        f"  ax2: K2 = K1 + {rng.randint(1, 9)}",
        "  ax3: K3 >= K2",
        "theorems",
        "  th1: K3 >= K1",
        "end",
    ]) + "\n"
    files = {f"{ctx}.ebh": ctx_text}
    ctx_pos = [f"{ctx}/th1/THM"]
    variables: list[str] = []
    abstract_events: list[Ev] = []
    out: list[FrontCase] = []
    for level in range(1, depth + 1):
        new_vars = [f"l{level}v{i + 1}" for i in range(nvars)]
        own = variables + new_vars
        invariants = [(f"l{level}i{i + 1}", _inv_text(rng, new_vars + variables[-2:])) for i in range(ninvs)]
        invariants[0] = (invariants[0][0], f"{new_vars[0]} <= K3")
        labels = [lab for lab, _ in invariants]
        events: list[Ev] = []
        names = list(ctx_pos)
        for k, ae in enumerate(abstract_events):
            ev = Ev(ae.name, refines=(ae.name,), guards=list(ae.guards), actions=list(ae.actions))
            target = rng.choice(new_vars)
            ev.actions.append((f"l{level}a", target, f"{target} := {target} + {rng.randint(1, 3)}"))
            split = _add_hints(rng, ev, new_vars, labels, k)
            events.append(ev)
            names += [f"{ev.name}/{g}/GRD" for g, _ in ae.guards]
            assigned = {t: lab for lab, t, _ in ae.actions}
            names += [f"{ev.name}/{assigned.get(v, 'BA:' + v)}/SIM" for v in variables]
            names += _inv_names(ev.name, labels, split)
        for k in range(nevents):
            ev = _random_event(rng, f"l{level}e{k + 1}", new_vars, k)
            split = _add_hints(rng, ev, new_vars, labels, k)
            events.append(ev)
            names += _inv_names(ev.name, labels, split)
        mname = f"{name}_{level}"
        header = f" refines {name}_{level - 1}" if level > 1 else f" sees {ctx}"
        files[f"{mname}.ebh"] = _machine_text(mname, own, invariants, events, header)
        out.append(FrontCase(f"{mname}.ebh", dict(files), tuple(files), names))
        variables, abstract_events = own, events
    return out


# (variables, invariants, events) of the flat machines: a graded
# series up to 20 x 50 x 50, so that command latencies spread over a
# range instead of bunching at a few sizes.
FRONTEND_SIZES = (
    (20, 50, 50), (18, 44, 44), (16, 38, 38), (14, 32, 32),
    (12, 26, 26), (10, 20, 20), (8, 14, 14), (6, 8, 8),
)


def frontend_corpus(seed: int) -> list[FrontCase]:
    """The flat machines of FRONTEND_SIZES and every level of a
    five-level refinement chain that sees a context."""
    rng = random.Random(seed)
    flat = [big_machine(rng, f"big{i + 1}", *size) for i, size in enumerate(FRONTEND_SIZES)]
    return flat + refinement_chain(rng, "chain", 5, 4, 6, 2)


# --- decide: random sequents and pinned pathological ones -------------------

NAMES = ("a", "b", "c", "d")
OPS = ("=", "/=", "<", "<=", ">", ">=")


def _expr(rng: random.Random, names: tuple[str, ...]) -> str:
    out = ""
    for n in range(rng.randint(1, 3)):
        pick = rng.random()
        if pick < 0.4:
            term = rng.choice(names)
        elif pick < 0.6:
            term = str(rng.randint(-8, 8))
        else:
            term = f"{rng.randint(1, 3)} * {rng.choice(names)}"
        if term.startswith("-"):
            term = f"({term})"
        out = term if n == 0 else out + (" + " if rng.random() < 0.7 else " - ") + term
    return out


def _atom(rng: random.Random, names: tuple[str, ...]) -> tuple[str, int]:
    """An atom and the number of linear literals the decision core
    makes of it (two for = and /=, two per set literal element)."""
    pick = rng.random()
    if pick < 0.7:
        op = rng.choice(OPS)
        return f"{_expr(rng, names)} {op} {_expr(rng, names)}", 2 if op in ("=", "/=") else 1
    if pick < 0.85:
        return f"{_expr(rng, names)} in NAT", 1
    elems = [str(rng.randint(-8, 8)) for _ in range(rng.randint(1, 3))]
    return f"{rng.choice(names)} in {{{', '.join(elems)}}}", 2 * len(elems)


def _predicate(rng: random.Random, names: tuple[str, ...], depth: int = 2) -> tuple[str, int]:
    if depth == 0 or rng.random() < 0.5:
        return _atom(rng, names)
    kind = rng.choice(("&", "or", "=>", "not"))
    left, n = _predicate(rng, names, depth - 1)
    if kind == "not":
        return f"not ({left})", n
    right, m = _predicate(rng, names, depth - 1)
    return f"({left}) {kind} ({right})", n + m


# Literals per random sequent.  The decision core's time grows about
# fourfold with every four more literals.  With 16 literals a few draws
# take a quarter to half a second, and a time-bounded run then measures
# which of them the seed happened to draw; with 12 no draw took more
# than 60 ms.  The random draws stay within the budget; the heavy tail
# is in PINNED, which every round decides.
LITERAL_BUDGET = 12


def random_sequents(seed: int, count: int, max_hyps: int) -> list[tuple[tuple[str, ...], str]]:
    """`count` sequents (hypotheses, goal) over at most four integer
    identifiers with constants in [-8, 8].  The number of identifiers
    and hypotheses cycles through a fixed schedule, so every seed has
    the same shape mix; the seed picks the formulas.  A predicate that
    would take the sequent past LITERAL_BUDGET is replaced by a single
    inequality, so no sequent has more literals than that."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        names = NAMES[: 1 + i % 4]
        nhyps = (i // 4) % (max_hyps + 1)
        used = 0
        preds = []
        for slot in range(nhyps + 1):
            text, n = _predicate(rng, names)
            # keep one literal for each predicate still to come
            if used + n + (nhyps - slot) > LITERAL_BUDGET:
                text, n = f"{_expr(rng, names)} {rng.choice(OPS[2:])} {_expr(rng, names)}", 1
            preds.append(text)
            used += n
        out.append((tuple(preds[:-1]), preds[-1]))
    return out


# Pathological sequents, pinned as text.  The first is valid (its
# hypotheses contradict each other) and takes about half a second.  The
# second adds the plainly contradictory `b in {-1,-7,4} & b in {7,8}`
# and one more hypothesis to it: it is still valid, but the search
# checks arithmetic only on complete propositional assignments and
# stops at the default branch cap after several seconds, so adding
# hypotheses loses a proof (ROADMAP direction 2).
_SLOW_HYPS = (
    "(c + 1 * c <= 3 * c - 3) & (not (c in {-3, -2, -1}))",
    "not ((3 * a + b + d /= d - c) or ((-8) - 1 * c < c - 4))",
    "c in {-7, 3, 0}",
    "c in {8, 4}",
)
_SLOW_GOAL = "((b in NAT) or (c in {6, -4})) & ((3 * c - (-8) - b > b) => (c - c - c /= (-4) + 3 * a))"
PINNED: tuple[tuple[tuple[str, ...], str], ...] = (
    (_SLOW_HYPS, _SLOW_GOAL),
    (_SLOW_HYPS + ("b in {-1,-7,4} & b in {7,8}", "a + d <= 6"), _SLOW_GOAL),
)
