"""Golden output: the CLI/JSON contract, byte for byte.

`golden/cli.json` holds, for every fixture and hint mode, the output of
`pos --format json`, the text output and the JSON report of
`prove --json` (with each `durationMillis` value blanked), and the
`export-smt` script of every obligation.  `golden/generate.json` pins
obligation generation on the models under `tests/models/`, which reach
the families the fixtures do not (context and machine theorems, guard
theorems, GRD, WFIS on primed and unprimed witnesses, frames for
disappearing variables, initialisation INV): `pos --format json`, the
`export-smt` script of every obligation, and the text output and JSON
report of `prove --json` (blanked as above), in both hint modes.
`golden/decide.json` pins the decision core: the status, reason,
counterexample and branch count (`_Search.visited`) of `decide` on
`DECIDE_DRAWS` seeded random sequents and on the pinned pathological
ones, so a change to the search states every `visited` it moves.  A
change that alters any of it changes the contract.  List every entry
that the current code moves, as its name, old value and new value,
with

    PYTHONPATH=src python tests/test_golden.py --diff

which writes nothing and exits 1 if any entry moved; write the new
expectation on purpose with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURE_FILES, FIXTURES, MODEL_FILES, MODELS, run_cli
from ebhint import prover
from ebhint.parser import parse_predicate
from strategies import random_sequent
from test_prover import PINNED

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
GENERATE_GOLDEN = GOLDEN.with_name("generate.json")
DECIDE_GOLDEN = GOLDEN.with_name("decide.json")
DECIDE_SEED = 2012
DECIDE_DRAWS = 400
MODES = ("tactic", "pog")


def _output(result) -> dict:
    return {"exit": result.exit_code, "output": result.output}


def _prove(path: str, mode: str, work: Path) -> dict:
    """`prove --json` output and report, each `durationMillis` blanked."""
    report = work / "report.json"
    prove = run_cli("prove", path, "--hint-mode", mode, "--json", str(report))
    return {
        "prove": _output(prove),
        "report": re.sub(r'"durationMillis": [^,\n]+', '"durationMillis": null', report.read_text()),
    }


def snapshot(name: str, mode: str, work: Path) -> dict:
    path = str(FIXTURES / name)
    pos = run_cli("pos", path, "--hint-mode", mode, "--format", "json")
    names = [po["name"] for po in json.loads(pos.output)["obligations"]]
    return {
        "pos": _output(pos),
        **_prove(path, mode, work),
        "export-smt": {po: _output(run_cli("export-smt", path, po, "--hint-mode", mode)) for po in names},
    }


def generate_snapshot(name: str, mode: str, work: Path) -> dict:
    """Run from `tests/models/`, so that diagnostics name the bare file."""
    here = os.getcwd()
    os.chdir(MODELS)
    try:
        pos = run_cli("pos", name, "--hint-mode", mode, "--format", "json")
        report = pos.output[pos.output.index("{\n") :]  # after any hint diagnostics
        names = [po["name"] for po in json.loads(report)["obligations"]]
        return {
            "pos": _output(pos),
            **_prove(name, mode, work),
            "export-smt": {po: _output(run_cli("export-smt", name, po, "--hint-mode", mode)) for po in names},
        }
    finally:
        os.chdir(here)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_cli_output_matches_golden(name, mode, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name} {mode}"]
    assert snapshot(name, mode, tmp_path) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", MODEL_FILES)
def test_generated_obligations_match_golden(name, mode, tmp_path):
    expected = json.loads(GENERATE_GOLDEN.read_text(encoding="utf-8"))[f"{name} {mode}"]
    assert generate_snapshot(name, mode, tmp_path) == expected


def decide_snapshot() -> dict:
    """Each sequent's `decide` verdict and the branch count of its search."""
    cases = {
        f"pinned {i}": (tuple(map(parse_predicate, hyps)), parse_predicate(goal))
        for i, (hyps, goal) in enumerate(PINNED)
    }
    rng = random.Random(DECIDE_SEED)
    for i in range(DECIDE_DRAWS):
        s = random_sequent(rng)
        cases[f"random {i}"] = (tuple(h.predicate for h in s.hypotheses if h.selected), s.goal)
    searches = []

    class Recording(prover._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    plain, prover._Search = prover._Search, Recording
    try:
        out = {}
        for name, (hyps, goal) in cases.items():
            searches.clear()
            d = prover.decide(hyps, goal)
            out[name] = {
                "status": d.status,
                "reason": d.reason,
                "counterexample": d.counterexample and [list(pair) for pair in d.counterexample],
                "visited": [search.visited for search in searches],
            }
        return out
    finally:
        prover._Search = plain


def test_decide_matches_golden():
    assert decide_snapshot() == json.loads(DECIDE_GOLDEN.read_text(encoding="utf-8"))


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def moved(old, new, name: str):
    """(name, old value, new value) of each entry that differs between
    two snapshots, descending into the dicts that both hold."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key), new.get(key), f"{name}[{json.dumps(key)}]")
    elif old != new:
        yield name, old, new


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--diff"]):
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        goldens = {
            GOLDEN: {f"{n} {m}": snapshot(n, m, Path(work)) for n in FIXTURE_FILES for m in MODES},
            GENERATE_GOLDEN: {f"{n} {m}": generate_snapshot(n, m, Path(work)) for n in MODEL_FILES for m in MODES},
        }
    goldens[DECIDE_GOLDEN] = decide_snapshot()
    if sys.argv[1] == "--write":
        for path, golden in goldens.items():
            _write(path, golden)
        sys.exit()
    entries = [
        entry
        for path, golden in goldens.items()
        for entry in moved(json.loads(path.read_text(encoding="utf-8")), json.loads(json.dumps(golden)), path.name)
    ]
    for name, old, new in entries:
        print(f"{name}: {json.dumps(old)} -> {json.dumps(new)}")
    sys.exit(1 if entries else 0)
