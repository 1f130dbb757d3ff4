"""Every name the benchmark's tracer wraps exists, and the commands call
it through the wrapped name.

`bench/tracing.py` wraps module attributes by name, so a change to
`src/` that drops or renames one would otherwise fail only the traced
benchmark runs, and a change that calls the function by another path
(an alias in another module) would leave its span silently at 0.  The
first test only imports the tracer; the second installs it, runs
`check`, `pos`, `prove` and `export-smt` in both hint modes in-process,
and checks that every span name was recorded.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from conftest import FIXTURES, run_cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    assert spec is not None and spec.loader is not None
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _targets() -> list[tuple[object, str]]:
    return [(module, attr) for module, attr, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda t: getattr(t, "__name__", t))
def test_traced_name_resolves(module, attr):
    assert callable(vars(module).get(attr)), f"{module.__name__}.{attr}"


def test_every_traced_name_is_called():
    tracing = _tracing()
    path = str(FIXTURES / "case0.ebh")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mode, name in (("tactic", "set/case0_1/INV"), ("pog", "set/case0_1/INV/case1")):
            assert run_cli("prove", path, "--hint-mode", mode).exit_code == 0
            assert run_cli("pos", path, "--hint-mode", mode, "--format", "json").exit_code == 0
            assert run_cli("export-smt", path, name, "--hint-mode", mode).exit_code == 0
        assert run_cli("check", path).exit_code == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    missing = [name for _, _, name, _ in tracing.TARGETS if name not in recorded]
    assert not missing, f"never called through the traced name: {missing}"
