"""The CLI output does not depend on Python's hash seed.

Set iteration order follows the hash seed, and the prover iterates over
sets of names and literals.  `pos --format json` and
`prove --json` (with each `durationMillis` value blanked) on every
fixture and test model, in both hint modes, must give the same bytes
under `PYTHONHASHSEED=0` and `PYTHONHASHSEED=1`.  Each seed runs in its
own interpreter, since the seed is fixed at start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import ebhint
from conftest import FIXTURE_FILES, FIXTURES, MODEL_FILES, MODELS

PATHS = [str(FIXTURES / name) for name in FIXTURE_FILES] + [str(MODELS / name) for name in MODEL_FILES]

RUN_ALL = """
import contextlib, io, json, re, sys, tempfile
from pathlib import Path
from ebhint.cli import main

def run(args):  # the exit code, and stdout and stderr in the order written
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, output.getvalue()

out = {}
with tempfile.TemporaryDirectory() as work:
    report = Path(work) / "report.json"
    for path in sys.argv[1:]:
        for mode in ("tactic", "pog"):
            pos = run(["pos", path, "--hint-mode", mode, "--format", "json"])
            prove = run(["prove", path, "--hint-mode", mode, "--json", str(report)])
            blanked = re.sub(r'"durationMillis": [^,\\n]+', '"durationMillis": null', report.read_text())
            out[path + " " + mode] = [*pos, *prove, blanked]
print(json.dumps(out, indent=1))
"""


def run_under(seed: str) -> str:
    src = str(Path(ebhint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", RUN_ALL, *PATHS], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_output_is_independent_of_hash_seed():
    first = run_under("0")
    assert len(json.loads(first)) == 2 * len(PATHS)
    assert run_under("1") == first
