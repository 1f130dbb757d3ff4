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
report of `prove --json` (blanked as above), in both hint modes.  A
change that alters any of it changes the contract; write the new
expectation on purpose with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURE_FILES, FIXTURES, MODEL_FILES, MODELS, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
GENERATE_GOLDEN = GOLDEN.with_name("generate.json")
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


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        _write(GOLDEN, {f"{n} {m}": snapshot(n, m, Path(work)) for n in FIXTURE_FILES for m in MODES})
        _write(GENERATE_GOLDEN, {f"{n} {m}": generate_snapshot(n, m, Path(work)) for n in MODEL_FILES for m in MODES})
