"""The CLI on malformed input: a diagnostic and exit code 0, 1 or 2,
never a traceback."""

from __future__ import annotations

import json
import re
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
    ("export-smt", "--hint-mode", "pog"),  # on the last obligation of the unmutated fixture
)


def _last_obligation(name: str) -> str:
    pos = run_cli("pos", str(FIXTURES / name), "--hint-mode", "pog", "--format", "json")
    return json.loads(pos.output)["obligations"][-1]["name"]


EXPORTED = {name: _last_obligation(name) for name in FIXTURE_FILES}

# keywords, symbols and names of the language, and a few stray characters
PIECES = (
    "machine", "context", "refines", "sees", "extends", "variables", "invariants", "theorems",
    "events", "event", "initialisation", "any", "where", "with", "then", "hints", "use", "for",
    "split", "case", "using", "end", "sets", "constants", "axioms", "NAT", "INT", "in", "not",
    "or", "&", "=>", "<=>", "=", "/=", "<=", "<", ":=", ":|", "::", ":", ",", "(", ")", "{", "}",
    ".", "'", "-", "+", "*", "A", "B", "x", "i1", "0", "7", "-3", "\n", "  ", "//", "∈", "¬",
    "²", "7" * 5000,
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


# The number, comparison and label tokens that `parseable_mutants` swaps.
NUMBER = re.compile(r"\b\d+\b")
COMPARISON = re.compile(r"(?<![<>=:/])(?:<=|>=|/=|<|>|=)(?![=>])")
LABEL = re.compile(r"^\s*([A-Za-z_]\w*):", re.MULTILINE)
NUMBERS = ("0", "1", "2", "3", "7", "42")
COMPARISONS = ("=", "/=", "<", "<=", ">", ">=")


@st.composite
def parseable_mutants(draw) -> tuple[str, bytes]:
    """A fixture with up to four integer literals, comparison operators
    or labels swapped for others: it still parses, so the mutant reaches
    wellformed, obligation generation, the prover and the SMT export."""
    name = draw(st.sampled_from(FIXTURE_FILES))
    text = (FIXTURES / name).read_text(encoding="utf-8")
    labels = sorted(set(LABEL.findall(text)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("number", "comparison", "label")))
        if kind == "label":
            old = draw(st.sampled_from(labels))
            pattern, choices = re.compile(rf"\b{re.escape(old)}\b"), labels
        else:
            pattern, choices = (NUMBER, NUMBERS) if kind == "number" else (COMPARISON, COMPARISONS)
        spans = [m.span() for m in pattern.finditer(text)]
        if spans:
            start, stop = draw(st.sampled_from(spans))
            text = text[:start] + draw(st.sampled_from(choices)) + text[stop:]
    return name, text.encode("utf-8")


def run_on(name: str, data: bytes, command: tuple[str, ...]):
    """Run a command on the given bytes, saved as fixture ``name`` next to
    the other fixtures, which a model may refine."""
    obligation = (EXPORTED[name],) if command[0] == "export-smt" else ()
    with tempfile.TemporaryDirectory() as tmp:
        for other in FIXTURE_FILES:
            shutil.copy(FIXTURES / other, tmp)
        path = Path(tmp) / name
        path.write_bytes(data)
        result = run_cli(command[0], str(path), *obligation, *command[1:])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output


@settings(max_examples=60, deadline=None)
@given(mutated_fixtures(), st.sampled_from(COMMANDS))
def test_cli_on_mutated_fixtures(case, command):
    run_on(*case, command)


@settings(max_examples=60, deadline=None)
@given(parseable_mutants(), st.sampled_from(COMMANDS))
def test_cli_on_parseable_mutants(case, command):
    run_on(*case, command)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIXTURE_FILES), st.binary(max_size=200), st.sampled_from(COMMANDS))
def test_cli_on_random_bytes(name, data, command):
    run_on(name, data, command)
