"""The CLI on malformed input: a diagnostic and exit code 0, 1 or 2,
never a traceback."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_FILES, FIXTURES, run_cli

COMMANDS = (
    ("check",),
    ("pos",),
    ("pos", "--hint-mode", "pog", "--format", "json"),
    ("prove", "--timeout-ms", "100"),
    ("prove", "--hint-mode", "pog", "--lasso", "--timeout-ms", "100"),
)

# keywords, symbols and names of the language, and a few stray characters
PIECES = (
    "machine", "context", "refines", "sees", "extends", "variables", "invariants", "theorems",
    "events", "event", "initialisation", "any", "where", "with", "then", "hints", "use", "for",
    "split", "case", "using", "end", "sets", "constants", "axioms", "NAT", "INT", "in", "not",
    "or", "&", "=>", "<=>", "=", "/=", "<=", "<", ":=", ":|", "::", ":", ",", "(", ")", "{", "}",
    ".", "'", "-", "+", "*", "A", "B", "x", "i1", "0", "7", "-3", "\n", "  ", "//", "∈", "¬",
)


@st.composite
def mutated_fixtures(draw) -> tuple[str, bytes]:
    """A fixture with up to four spans replaced by language pieces."""
    name = draw(st.sampled_from(FIXTURE_FILES))
    text = (FIXTURES / name).read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + " ".join(draw(st.lists(st.sampled_from(PIECES), max_size=3))) + text[stop:]
    return name, text.encode("utf-8")


def run_on(name: str, data: bytes, command: tuple[str, ...]):
    """Run a command on the given bytes, saved as fixture ``name`` next to
    the other fixtures, which a model may refine."""
    with tempfile.TemporaryDirectory() as tmp:
        for other in FIXTURE_FILES:
            shutil.copy(FIXTURES / other, tmp)
        path = Path(tmp) / name
        path.write_bytes(data)
        result = run_cli(command[0], str(path), *command[1:])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output


@settings(max_examples=60, deadline=None)
@given(mutated_fixtures(), st.sampled_from(COMMANDS))
def test_cli_on_mutated_fixtures(case, command):
    run_on(*case, command)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURE_FILES), st.binary(max_size=200), st.sampled_from(COMMANDS))
def test_cli_on_random_bytes(name, data, command):
    run_on(name, data, command)
