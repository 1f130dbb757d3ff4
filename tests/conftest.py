"""Shared test helpers: fixture paths and a CLI runner."""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

from ebhint.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_FILES = (
    "hypSel0.ebh",
    "hypSel0_workaround.ebh",
    "case0.ebh",
    "case0_abstract.ebh",
    "case0_merge.ebh",
)

MODELS = Path(__file__).resolve().parent / "models"

MODEL_FILES = ("gen_abstract.ebh", "gen_concrete.ebh")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_gen() -> types.ModuleType:
    """`bench/gen.py`, imported without writing bytecode into bench/."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(BENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return gen


def contexts_nest(model) -> bool:
    """Whether each level's contexts begin with those of the level it
    refines, as `wellformed`'s single pass over the levels needs."""
    levels = list(model.levels())
    return all(upper.contexts[: len(lower.contexts)] == lower.contexts for upper, lower in zip(levels, levels[1:]))

# A `use` hint on the initialisation that names an invariant it cannot
# see: in pog mode `pos`, `prove` and `export-smt` report it on stderr.
USE_ON_INITIALISATION = (
    "machine use1\nvariables x y\ninvariants\n  i1: x in NAT\n  i2: y in NAT\nevents\n"
    "  initialisation\n  then\n    a1: x := 0\n    a2: y := 0\n"
    "  hints\n    use i2 for i1\n  end\n"
    "  event step\n  then\n    a1: x := x + 1\n  end\nend\n"
)


# Problems in the extends chain of a context ``c`` that both levels of
# `two_levels_see_c` see, by code: the text of ``d.ebh`` (None: no such
# file) and the rendered diagnostic, which names ``c.ebh``.
CHAIN_PROBLEMS = {
    "name-mismatch": ("context e\nend\n", "name-mismatch: d.ebh declares 'e', expected 'd'"),
    "unresolved-reference": (None, "unresolved-reference: cannot resolve context 'd': no file d.ebh next to it"),
}


def two_levels_see_c(directory: Path, context: str = "context c extends d\nend\n", d: str | None = None) -> Path:
    """Write ``m1.ebh``, which refines ``m0`` and sees ``c`` as ``m0``
    does, with ``context`` as ``c.ebh`` and ``d`` as ``d.ebh``; return
    the path of ``m1.ebh``."""
    (directory / "m0.ebh").write_text("machine m0 sees c\nevents\nend\n")
    (directory / "m1.ebh").write_text("machine m1 refines m0 sees c\nevents\nend\n")
    (directory / "c.ebh").write_text(context)
    if d is not None:
        (directory / "d.ebh").write_text(d)
    return directory / "m1.ebh"


# Models whose levels see different scopes, by case: the files, the one
# to load, and the one diagnostic it has, which names a referenced file.
SCOPE_CASES = {
    # a name an extended context declares is redeclared two contexts up
    "redeclared-up-the-chain": (
        {
            "c0.ebh": "context c0\nconstants k\nend\n",
            "c1.ebh": "context c1 extends c0\nend\n",
            "c2.ebh": "context c2 extends c1\nconstants k\nend\n",
            "m.ebh": "machine m sees c2\nevents\nend\n",
        },
        "m.ebh",
        "c2.ebh:2:11: duplicate-identifier: duplicate declaration of 'k'",
    ),
    # the abstract machine does not see the context its refinement sees
    "abstract-level-sees-less": (
        {
            "c.ebh": "context c\nconstants k\nend\n",
            "m0.ebh": "machine m0\nvariables x\ninvariants\n  i1: x = k\nevents\nend\n",
            "m1.ebh": "machine m1 refines m0 sees c\nvariables x\nevents\nend\n",
        },
        "m1.ebh",
        "m0.ebh:4:11: unknown-identifier: unknown identifier 'k'",
    ),
}


def write_scope_case(directory: Path, case: str) -> tuple[Path, str]:
    """Write the files of ``SCOPE_CASES[case]``; return the path to load
    and its rendered diagnostic."""
    files, top, rendered = SCOPE_CASES[case]
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory / top, f"{directory.resolve() / rendered}"


class _Copied(io.StringIO):
    """One stream of a command, each write also made to ``merged``."""

    def __init__(self, merged: io.StringIO) -> None:
        super().__init__()
        self.merged = merged

    def write(self, text: str) -> int:
        self.merged.write(text)
        return super().write(text)


def run_cli(*args: str) -> types.SimpleNamespace:
    """Run one command in-process.  The result's ``output`` holds stdout
    and stderr in the order they were written (``stdout`` and ``stderr``
    each alone); ``exit_code`` comes from a SystemExit and is 0 when the
    command returns; ``exception`` is the SystemExit or any other
    exception raised, which is recorded, not raised (exit code 1)."""
    output = io.StringIO()
    out, err = _Copied(output), _Copied(output)
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            exit_code, exception = exc.code if isinstance(exc.code, int) else int(exc.code is not None), exc
        except Exception as exc:
            exit_code, exception = 1, exc
    return types.SimpleNamespace(
        output=output.getvalue(), stdout=out.getvalue(), stderr=err.getvalue(), exit_code=exit_code, exception=exception
    )


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
