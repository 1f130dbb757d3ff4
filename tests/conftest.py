"""Shared test helpers: fixture paths and a CLI runner."""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from ebhint.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_FILES = (
    "hypSel0.ebh",
    "hypSel0_workaround.ebh",
    "case0.ebh",
    "case0_abstract.ebh",
    "case0_merge.ebh",
)


def run_cli(*args: str):
    """Invoke the CLI in-process and return the click result."""
    return CliRunner().invoke(main, list(args))


def statuses_from(output: str) -> dict[str, str]:
    """Map obligation name -> status from prove's text output."""
    out: dict[str, str] = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in {"PROVED", "UNPROVED", "UNSUPPORTED"}:
            out[parts[1]] = parts[0].lower()
    return out


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def init_split_model(tmp_path) -> Path:
    """A machine whose only hint sits on the initialisation: without the
    split on ``k = 1`` the unselected axiom leaves ``i1`` unproved."""
    (tmp_path / "c0.ebh").write_text("context c0\nconstants k\naxioms\n  ax1: k in {1, 2}\nend\n")
    path = tmp_path / "init.ebh"
    path.write_text(
        "machine init sees c0\nvariables x\ninvariants\n  i1: x in {2, 4}\nevents\n"
        "  initialisation\n  then\n    a1: x := 2 * k\n"
        "  hints\n    split case using k = 1 for i1\n  end\nend\n"
    )
    return path
