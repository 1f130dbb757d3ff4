"""The benchmark drives the CLI as the tests do.

`bench/run.py` runs every `ebhint` command in-process through its
`Cli` class, and only a benchmark change may edit it.  So for one call
of each command `Cli` must give the exit code, stdout and stderr that
`run_cli` gives; a change to `ebhint.cli` that breaks the benchmark's
call fails here.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, USE_ON_INITIALISATION, run_cli

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_cli():
    """`bench/run.py`'s `Cli`, loaded by file path."""
    saved_path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    try:
        spec = importlib.util.spec_from_file_location("bench_run", RUN)
        assert spec is not None and spec.loader is not None
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = dont_write
    return run.Cli()


def test_bench_cli_matches_run_cli(bench_cli, tmp_path):
    case0 = str(FIXTURES / "case0.ebh")
    use1 = tmp_path / "use1.ebh"
    use1.write_text(USE_ON_INITIALISATION)
    (tmp_path / "bad.ebh").write_text("machine bad\nvariables x\ninvariants\n  i1: x = ghost\nevents\nend\n")
    calls = [
        ["check", case0, str(tmp_path / "bad.ebh")],
        ["pos", case0, "--hint-mode", "pog", "--format", "json"],
        ["prove", str(use1), "--hint-mode", "pog", "--json", str(tmp_path / "missing" / "report.json")],
        ["export-smt", str(use1), "step/i1/INV", "--hint-mode", "pog"],
    ]
    codes = set()
    for args in calls:
        result = run_cli(*args)
        assert bench_cli(args) == (result.exit_code, result.stdout, result.stderr), args
        codes.add(result.exit_code)
    assert codes == {0, 1, 2}
