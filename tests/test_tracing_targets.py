"""Every name the benchmark's tracer wraps exists.

`bench/tracing.py` wraps module attributes by name, so a change to
`src/` that drops or renames one would otherwise fail only the traced
benchmark runs.  The tracer is imported here, not installed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets() -> list[tuple[object, str]]:
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    assert spec is not None and spec.loader is not None
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda t: getattr(t, "__name__", t))
def test_traced_name_resolves(module, attr):
    assert callable(vars(module).get(attr)), f"{module.__name__}.{attr}"
