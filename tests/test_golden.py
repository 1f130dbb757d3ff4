"""Golden output: the CLI/JSON contract, byte for byte, on the fixtures.

`golden/cli.json` holds, for every fixture and hint mode, the output of
`pos --format json`, the text output and the JSON report of
`prove --json` (with each `durationMillis` value blanked), and the
`export-smt` script of every obligation.  A change that alters any of
it changes the contract; write the new expectation on purpose with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURE_FILES, FIXTURES, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
MODES = ("tactic", "pog")


def _output(result) -> dict:
    return {"exit": result.exit_code, "output": result.output}


def snapshot(name: str, mode: str, work: Path) -> dict:
    path = str(FIXTURES / name)
    pos = run_cli("pos", path, "--hint-mode", mode, "--format", "json")
    report = work / "report.json"
    prove = run_cli("prove", path, "--hint-mode", mode, "--json", str(report))
    names = [po["name"] for po in json.loads(pos.output)["obligations"]]
    return {
        "pos": _output(pos),
        "prove": _output(prove),
        "report": re.sub(r'"durationMillis": [^,\n]+', '"durationMillis": null', report.read_text()),
        "export-smt": {po: _output(run_cli("export-smt", path, po, "--hint-mode", mode)) for po in names},
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_cli_output_matches_golden(name, mode, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"{name} {mode}"]
    assert snapshot(name, mode, tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        golden = {f"{n} {m}": snapshot(n, m, Path(work)) for n in FIXTURE_FILES for m in MODES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
