"""The command line interface: exit codes, formats, reports."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import (
    CHAIN_PROBLEMS,
    FIXTURE_FILES,
    SCOPE_CASES,
    FIXTURES,
    MODEL_FILES,
    MODELS,
    USE_ON_INITIALISATION,
    bench_gen,
    contexts_nest,
    run_cli,
    statuses_from,
    two_levels_see_c,
    write_scope_case,
)
import ebhint
from ebhint import cli, parser, prover
from ebhint.parser import load_model
from ebhint.printer import print_formula

REPORT_KEYS = ["machine", "mode", "obligations", "summary"]
OBLIGATION_KEYS = [
    "name",
    "kind",
    "status",
    "selectedLabels",
    "hintApplied",
    "traceSummary",
    "durationMillis",
]


# --- check ---------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_check_fixtures_clean(name):
    result = run_cli("check", str(FIXTURES / name))
    assert result.exit_code == 0, result.output
    assert result.output == ""


def test_check_reports_semantic_errors(tmp_path):
    bad = tmp_path / "bad.ebh"
    bad.write_text(
        "machine bad\nvariables x\ninvariants\n  i1: x = ghost\nevents\nend\n"
    )
    result = run_cli("check", str(bad))
    assert result.exit_code == 1
    assert "unknown-identifier" in result.output
    assert "ghost" in result.output
    # rendered as path:line:col: code: message
    assert f"{bad}:4:" in result.output


def test_check_missing_file_is_io_error():
    result = run_cli("check", "/no/such/file.ebh")
    assert result.exit_code == 2
    assert "error" in result.output


def test_check_non_utf8_file_is_io_error(tmp_path):
    bad = tmp_path / "bad.ebh"
    bad.write_bytes(b"machine bad\n\xff\xfe\n")
    result = run_cli("check", str(bad))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert len(result.output.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "pos", "prove", "export-smt"])
def test_a_symlink_loop_is_io_error(tmp_path, command):
    loop = tmp_path / "loop.ebh"
    try:
        loop.symlink_to(loop.name)
    except (OSError, NotImplementedError):
        pytest.skip("symlinks cannot be made here")
    result = run_cli(command, str(loop), *(["loop/i1/INV"] if command == "export-smt" else []))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert len(result.output.splitlines()) == 1


def test_check_non_utf8_refined_machine_is_unresolved(tmp_path):
    (tmp_path / "abs.ebh").write_bytes(b"machine abs\n\xff\xfe\n")
    src = tmp_path / "m.ebh"
    src.write_text("machine m refines abs\nevents\nend\n")
    result = run_cli("check", str(src))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "unresolved-reference" in result.output


def test_check_dangling_refinement(tmp_path):
    src = tmp_path / "m.ebh"
    src.write_text("machine m refines ghost\nevents\nend\n")
    result = run_cli("check", str(src))
    assert result.exit_code == 1
    assert "ghost" in result.output


def test_check_machine_that_sees_a_context(tmp_path):
    (tmp_path / "c0.ebh").write_text("context c0\nsets S\nconstants k\naxioms\n  ax1: k in NAT\nend\n")
    ctx = tmp_path / "c1.ebh"
    ctx.write_text("context c1 extends c0\nconstants m\naxioms\n  ax2: m = k + 1\nend\n")
    machine = tmp_path / "m.ebh"
    machine.write_text(
        "machine m sees c1\nvariables x\ninvariants\n  i1: x <= m\nevents\n"
        "  event e\n  where\n    g1: x < k\n  then\n    a1: x := x + 1\n  end\nend\n"
    )
    result = run_cli("check", str(machine))
    assert (result.exit_code, result.output) == (0, ""), repr(result.exception)
    # a repeated label and an unknown name in the seen context
    ctx.write_text("context c1 extends c0\nconstants m\naxioms\n  ax1: m = q\nend\n")
    result = run_cli("check", str(machine))
    assert result.exit_code == 1
    assert [line.split(": ")[1] for line in result.output.splitlines()] == ["duplicate-label", "unknown-identifier"]


def test_check_names_the_file_that_holds_the_position(tmp_path):
    a = tmp_path / "a.ebh"
    a.write_text("machine a\nvariables x\ninvariants\n  i1: x in NAT\n  i1: x <= 5\nevents\nend\n")
    b = tmp_path / "b.ebh"
    b.write_text("machine b refines a\nvariables x\ninvariants\n  j1: x <= 3\n  j1: x <= 4\nevents\nend\n")
    result = run_cli("check", str(b))
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"{a.resolve()}:5:3: duplicate-label: duplicate label 'i1'",
        f"{b}:5:3: duplicate-label: duplicate label 'j1'",
    ]
    # checked on its own and again as b's abstraction, a's problem is printed once
    result = run_cli("check", str(a), str(b))
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"{a}:5:3: duplicate-label: duplicate label 'i1'",
        f"{b}:5:3: duplicate-label: duplicate label 'j1'",
    ]


def test_check_new_events_at_every_refinement_level(tmp_path):
    (tmp_path / "c.ebh").write_text("machine c\nvariables x\ninvariants\n  i1: x in NAT\nevents\nend\n")
    a = tmp_path / "a.ebh"
    a.write_text(
        "machine a refines c\nvariables x\nevents\n  event bump\n  then\n    a1: x := x + 1\n  end\nend\n"
    )
    b = tmp_path / "b.ebh"
    b.write_text("machine b refines a\nvariables x\nevents\nend\n")
    rendered = "4:3: new-event-assigns-abstract: new event 'bump' assigns abstract variable 'x'"
    result = run_cli("check", str(a))
    assert (result.exit_code, result.output) == (1, f"{a}:{rendered}\n")
    result = run_cli("check", str(b))
    assert (result.exit_code, result.output) == (1, f"{a.resolve()}:{rendered}\n")


def test_check_multiple_files_aggregate(tmp_path):
    good = FIXTURES / "hypSel0.ebh"
    bad = tmp_path / "bad.ebh"
    bad.write_text("machine bad\nvariables x\ninvariants\n  i1: y = 0\nevents\nend\n")
    assert run_cli("check", str(good), str(good)).exit_code == 0
    assert run_cli("check", str(good), str(bad)).exit_code == 1


def test_check_parses_each_file_of_a_chain_once(monkeypatch, tmp_path):
    (tmp_path / "ctx.ebh").write_text("context ctx\nconstants k\naxioms\n  ax1: k = 1\nend\n")
    files = [tmp_path / "ctx.ebh"]
    for level in range(5):
        header = f"machine m{level} refines m{level - 1}" if level else "machine m0 sees ctx"
        path = tmp_path / f"m{level}.ebh"
        path.write_text(f"{header}\nvariables x\ninvariants\n  i{level}: x <= k\nevents\nend\n")
        files.append(path)
    parsed = []

    def counting(text, path="<string>"):
        parsed.append(path)
        return try_parse(text, path)

    try_parse = parser.try_parse
    monkeypatch.setattr(parser, "try_parse", counting)
    for order in (files, files[::-1]):
        parsed.clear()
        assert run_cli("check", *map(str, order)).exit_code == 0
        assert sorted(Path(path).resolve() for path in parsed) == sorted(f.resolve() for f in files)


LOAD_COMMANDS = [["check"], ["pos"], ["prove"], ["export-smt", "x"]]


@pytest.mark.parametrize("command", LOAD_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("code", CHAIN_PROBLEMS)
def test_a_chain_problem_two_levels_see_is_printed_once(tmp_path, code, command):
    d, rendered = CHAIN_PROBLEMS[code]
    top = two_levels_see_c(tmp_path, d=d)
    result = run_cli(command[0], str(top), *command[1:])
    assert (result.exit_code, result.output) == (1, f"{tmp_path.resolve() / 'c.ebh'}: {rendered}\n")


@pytest.mark.parametrize("command", LOAD_COMMANDS, ids=lambda command: command[0])
def test_a_referring_file_is_named_by_its_absolute_path(monkeypatch, tmp_path, command):
    """From a relative FILE, a reference problem raised in a file that
    FILE refines, sees or extends names that file absolutely; one raised
    in FILE names it as written."""
    monkeypatch.chdir(tmp_path)
    here = tmp_path.resolve()
    expected = {
        "m1.ebh": f"{here / 'c.ebh'}: {CHAIN_PROBLEMS['name-mismatch'][1]}",
        "m.ebh": f"{here / 'b.ebh'}: circular-reference: circular refinement through 'a'",
        "lone.ebh": "lone.ebh: unresolved-reference: cannot resolve machine 'ghost': no file ghost.ebh next to it",
    }
    two_levels_see_c(Path("."), d=CHAIN_PROBLEMS["name-mismatch"][0])
    Path("m.ebh").write_text("machine m refines a\nevents\nend\n")
    Path("a.ebh").write_text("machine a refines b\nevents\nend\n")
    Path("b.ebh").write_text("machine b refines a\nevents\nend\n")
    Path("lone.ebh").write_text("machine lone refines ghost\nevents\nend\n")
    for path, line in expected.items():
        result = run_cli(command[0], path, *command[1:])
        assert (result.exit_code, result.output) == (1, line + "\n")


@pytest.mark.parametrize("case", SCOPE_CASES)
def test_check_checks_each_level_against_its_own_scope(tmp_path, case):
    top, rendered = write_scope_case(tmp_path, case)
    result = run_cli("check", str(top))
    assert (result.exit_code, result.output) == (1, rendered + "\n")


# deeper than Python's recursion limit: loading must not recurse per level
DEEP = sys.getrecursionlimit() + 200


def test_check_deep_extends_chain(tmp_path):
    for level in range(DEEP):
        extends = f" extends c{level - 1}" if level else ""
        (tmp_path / f"c{level}.ebh").write_text(f"context c{level}{extends}\nconstants k{level}\nend\n")
    path = tmp_path / "m.ebh"
    path.write_text(f"machine m sees c{DEEP - 1}\nvariables x\ninvariants\n  i1: x = k0\nevents\nend\n")
    result = run_cli("check", str(path))
    assert (result.exit_code, result.output) == (0, ""), repr(result.exception)
    assert contexts_nest(load_model(path)[0])


def test_prove_deep_refinement_chain(tmp_path):
    for level in range(DEEP):
        refines = f" refines m{level - 1}" if level else ""
        (tmp_path / f"m{level}.ebh").write_text(f"machine m{level}{refines}\nevents\nend\n")
    path = tmp_path / "top.ebh"
    path.write_text(
        f"machine top refines m{DEEP - 1}\nvariables x\ninvariants\n  i1: x >= 0\nevents\n"
        "  initialisation\n  then\n    a1: x := 0\n  end\nend\n"
    )
    result = run_cli("prove", str(path))
    assert (result.exit_code, result.output) == (0, "PROVED INITIALISATION/i1/INV\nsummary: 1 obligations, 1 proved, 0 unproved, 0 unsupported\n"), repr(result.exception)
    assert contexts_nest(load_model(path)[0])

# --- pos -----------------------------------------------------------------------


def test_pos_text_lists_name_kind_goal_selection():
    result = run_cli("pos", str(FIXTURES / "hypSel0.ebh"))
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "set/hypSel0_1/INV"
    assert lines[1] == "  kind: INV"
    assert any(line.startswith("  selected: ") for line in lines)
    assert any(line.startswith("  goal: ") for line in lines)


def test_pos_pog_mode_shows_case_children():
    result = run_cli("pos", str(FIXTURES / "case0.ebh"), "--hint-mode", "pog")
    assert result.exit_code == 0
    assert "set/case0_1/INV/case1" in result.output
    assert "set/case0_1/INV/case2" in result.output
    assert "set/case0_1/INV\n" not in result.output
    assert "hint: split case using A = 1 for case0_1" in result.output


def test_pos_lists_merge_obligation():
    result = run_cli("pos", str(FIXTURES / "case0_merge.ebh"))
    assert "set/MRG" in result.output
    assert "  kind: MRG" in result.output


def test_pos_json_schema():
    result = run_cli("pos", str(FIXTURES / "hypSel0.ebh"), "--format", "json")
    payload = json.loads(result.output)
    assert list(payload.keys()) == ["machine", "mode", "obligations"]
    assert payload["machine"] == "hypSel0"
    assert payload["mode"] == "tactic"
    entry = payload["obligations"][0]
    assert list(entry.keys()) == ["name", "kind", "goal", "selectedLabels", "hintApplied"]
    assert entry["name"] == "set/hypSel0_1/INV"
    assert entry["hintApplied"] is None


def test_pos_json_pog_mode_marks_hints():
    result = run_cli(
        "pos", str(FIXTURES / "hypSel0.ebh"), "--hint-mode", "pog", "--format", "json"
    )
    payload = json.loads(result.output)
    entry = next(o for o in payload["obligations"] if o["name"] == "set/hypSel0_1/INV")
    assert entry["hintApplied"] == "use hypSel0_2 for hypSel0_1"
    assert "hypSel0_2" in entry["selectedLabels"]


# --- the pos listing writer ----------------------------------------------------

POS_INPUTS = (
    *(str(FIXTURES / name) for name in FIXTURE_FILES),
    *(str(MODELS / name) for name in MODEL_FILES),
    "big8.ebh",
    "chain_3.ebh",
    "non_ascii.ebh",
)

# Names that JSON output must escape: the listing and the report are ASCII.
NON_ASCII = """\
machine mé
variables é
invariants
  ié: é in NAT
events
  event inc
  where
    gé: é in NAT
  then
    aé: é := é + 1
  end
end
"""


def assert_escaped(text: str) -> None:
    assert "\\u00e9" in text
    assert text.isascii()


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> dict[str, str]:
    """big1, big8 and chain_3 of `bench/gen.py`'s `frontend_corpus(101)`,
    and `NON_ASCII`, as files."""
    gen = bench_gen()
    root = tmp_path_factory.mktemp("frontend")
    paths = {}
    for case in gen.frontend_corpus(101):
        if case.target in ("big1.ebh", "big8.ebh", "chain_3.ebh"):
            for name, text in case.files.items():
                (root / name).write_text(text, encoding="utf-8")
            paths[case.target] = str(root / case.target)
    (root / "non_ascii.ebh").write_text(NON_ASCII, encoding="utf-8")
    paths["non_ascii.ebh"] = str(root / "non_ascii.ebh")
    return paths


def _stdout(*args: str) -> str:
    """The stdout of one in-process `ebhint` command that exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(args))
    return out.getvalue()


def _pos_reference(path: str, mode: str, fmt: str) -> str:
    """`pos` output built line by line and, for json, as payload dicts
    passed to `json.dumps(payload, indent=2)`."""
    poset = cli._obligations(path, mode)
    if fmt == "json":
        payload = {
            "machine": poset.source_machine,
            "mode": mode,
            "obligations": [
                {
                    "name": po.name,
                    "kind": po.kind,
                    "goal": print_formula(po.sequent.goal),
                    "selectedLabels": list(po.sequent.selected_labels()),
                    "hintApplied": po.hint_applied,
                }
                for po in poset.obligations
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for po in poset.obligations:
        lines += [po.name, f"  kind: {po.kind}"]
        if po.hint_applied:
            lines.append(f"  hint: {po.hint_applied}")
        selected = " ".join(po.sequent.selected_labels())
        lines.append(f"  selected: {selected}" if selected else "  selected: (none)")
        lines.append(f"  goal: {print_formula(po.sequent.goal)}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("mode", ["tactic", "pog"])
@pytest.mark.parametrize("source", POS_INPUTS, ids=lambda source: Path(source).name)
def test_pos_matches_its_reference(generated, source, mode, fmt):
    path = generated.get(source, source)
    out = _stdout("pos", path, "--hint-mode", mode, "--format", fmt)
    assert out == _pos_reference(path, mode, fmt)
    if source == "non_ascii.ebh" and fmt == "json":
        assert_escaped(out)


def test_pos_edge_cases_match_their_reference(tmp_path):
    (tmp_path / "empty.ebh").write_text("machine empty\nend\n")
    (tmp_path / "c.ebh").write_text("context c\ntheorems\n  t1: 1 + 1 = 2\nend\n")
    cases = [
        (str(tmp_path / "empty.ebh"), "tactic", '"obligations": []'),
        (str(tmp_path / "c.ebh"), "tactic", '"selectedLabels": []'),
        (str(FIXTURES / "hypSel0.ebh"), "tactic", '"hintApplied": null'),
        (str(FIXTURES / "hypSel0.ebh"), "pog", '"hintApplied": "use hypSel0_2 for hypSel0_1"'),
    ]
    for path, mode, edge in cases:
        out = _stdout("pos", path, "--hint-mode", mode, "--format", "json")
        assert edge in out
        assert out == _pos_reference(path, mode, "json")
        assert _stdout("pos", path, "--hint-mode", mode) == _pos_reference(path, mode, "text")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("mode", ["tactic", "pog"])
def test_pos_prints_each_goal_object_once(monkeypatch, generated, mode, fmt):
    posets, printed = [], []

    def keeping(*args, **kwargs):
        posets.append(obligations(*args, **kwargs))
        return posets[-1]

    def counting(goal):
        printed.append(id(goal))
        return print_formula(goal)

    obligations = cli._obligations
    monkeypatch.setattr(cli, "_obligations", keeping)
    monkeypatch.setattr(cli, "print_formula", counting)
    _stdout("pos", generated["big8.ebh"], "--hint-mode", mode, "--format", fmt)
    (poset,) = posets
    goals = list(dict.fromkeys(id(po.sequent.goal) for po in poset.obligations))
    assert printed == goals
    # every event's INV obligations of one invariant share its goal
    assert len(goals) < len(poset.obligations) / 2


# --- prove ---------------------------------------------------------------------


def test_prove_text_lines_and_summary():
    result = run_cli("prove", str(FIXTURES / "hypSel0.ebh"))
    assert result.exit_code == 0
    assert "PROVED set/hypSel0_1/INV" in result.output
    assert "PROVED set/hypSel0_2/INV" in result.output
    assert "summary: 2 obligations, 2 proved, 0 unproved, 0 unsupported" in result.output


def test_prove_unproved_sets_exit_code():
    result = run_cli("prove", str(FIXTURES / "case0_abstract.ebh"))
    assert result.exit_code == 1
    statuses = statuses_from(result.output)
    assert statuses["set_case1/case0_1/INV"] == "unproved"


def test_prove_lasso_closes_split_machine():
    result = run_cli("prove", str(FIXTURES / "case0_abstract.ebh"), "--lasso")
    assert result.exit_code == 0


def test_prove_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("prove", str(FIXTURES / "case0.ebh"), "--json", str(out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert list(report.keys()) == REPORT_KEYS
    assert report["machine"] == "case0"
    assert report["mode"] == "tactic"
    for entry in report["obligations"]:
        assert list(entry.keys()) == OBLIGATION_KEYS
        assert isinstance(entry["selectedLabels"], list)
        assert isinstance(entry["durationMillis"], (int, float))
    summary = report["summary"]
    assert list(summary.keys()) == ["total", "proved", "unproved", "unsupported"]
    assert summary["total"] == len(report["obligations"])
    assert summary["proved"] == sum(
        1 for e in report["obligations"] if e["status"] == "proved"
    )


def test_prove_json_round_trips(tmp_path):
    (tmp_path / "non_ascii.ebh").write_text(NON_ASCII, encoding="utf-8")
    out = tmp_path / "report.json"
    for source in (FIXTURES / "hypSel0.ebh", tmp_path / "non_ascii.ebh"):
        for mode in ("tactic", "pog"):
            run_cli("prove", str(source), "--hint-mode", mode, "--json", str(out))
            text = out.read_text(encoding="utf-8")
            assert json.dumps(json.loads(text), indent=2) + "\n" == text
            if source.name == "non_ascii.ebh":
                assert_escaped(text)


def test_prove_json_deterministic_modulo_duration(tmp_path):
    def snapshot(path):
        run_cli("prove", str(FIXTURES / "case0_merge.ebh"), "--lasso", "--json", str(path))
        report = json.loads(path.read_text())
        for entry in report["obligations"]:
            entry["durationMillis"] = 0
        return report

    assert snapshot(tmp_path / "a.json") == snapshot(tmp_path / "b.json")


def test_prove_json_records_hints_in_both_modes(tmp_path):
    for mode in ("tactic", "pog"):
        out = tmp_path / f"{mode}.json"
        result = run_cli(
            "prove", str(FIXTURES / "hypSel0.ebh"), "--hint-mode", mode, "--json", str(out)
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["mode"] == mode
        hinted = [e for e in report["obligations"] if e["hintApplied"]]
        assert any("use hypSel0_2 for hypSel0_1" == e["hintApplied"] for e in hinted)


def test_prove_json_into_missing_directory(tmp_path):
    out = tmp_path / "missing" / "report.json"
    result = run_cli("prove", str(FIXTURES / "hypSel0.ebh"), "--json", str(out))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1].startswith("error: ")
    assert not out.exists()


def test_prove_pog_hint_diagnostic_names_the_file(tmp_path):
    # invariants are no hypotheses of the initialisation's obligations
    path = tmp_path / "use0.ebh"
    path.write_text(
        "machine use0\nvariables x y\ninvariants\n  i1: x in NAT\n  i2: y in NAT\nevents\n"
        "  initialisation\n  then\n    a1: x := 0\n    a2: y := 0\n"
        "  hints\n    use i2 for i1\n  end\nend\n"
    )
    result = run_cli("prove", str(path), "--hint-mode", "pog")
    assert result.exit_code == 0
    assert f"{path}:12:5: unresolved-hint-label: " in result.output
    assert "<model>" not in result.output


def test_prove_builds_one_memo_per_command(monkeypatch):
    built, shared = [], []

    class Recording(prover.Memo):
        def __init__(self):
            super().__init__()
            built.append(weakref.ref(self))

    def recording(*args, memo=None, **kwargs):
        shared.append(memo is built[-1]())
        return prover.prove_obligation(*args, memo=memo, **kwargs)

    monkeypatch.setattr(cli, "Memo", Recording)
    monkeypatch.setattr(cli, "prove_obligation", recording)
    for mode in ("tactic", "pog"):
        result = run_cli("prove", str(FIXTURES / "case0.ebh"), "--hint-mode", mode)
        assert result.exit_code == 0
        del result  # its traceback holds the command's frame
    gc.collect()
    assert len(built) == 2
    assert len(shared) > 2 and all(shared)  # every obligation gets its command's memo
    assert all(ref() is None for ref in built)  # and no memo outlives its command
    assert not [v for v in vars(prover).values() if isinstance(v, prover.Memo)]


@pytest.mark.parametrize("n", [1_000, 5_000])
def test_prove_long_set_literal(tmp_path, n):
    members = ", ".join(str(k) for k in range(n))
    path = tmp_path / "set.ebh"
    path.write_text(
        f"machine m\nvariables x\ninvariants\n  i1: x in {{{members}}}\n"
        "events\n  event e\n  then\n    a1: x := x + 1\n  end\nend\n"
    )
    result = run_cli("prove", str(path), "--timeout-ms", "200")
    assert result.exit_code in (0, 1)
    assert isinstance(result.exception, SystemExit)  # not a RecursionError
    assert "Traceback" not in result.output


def test_prove_timeout_flag_accepted():
    result = run_cli("prove", str(FIXTURES / "hypSel0.ebh"), "--timeout-ms", "100")
    assert result.exit_code == 0


def test_prove_semantic_error_exits_one(tmp_path):
    bad = tmp_path / "bad.ebh"
    bad.write_text("machine bad\nvariables x\ninvariants\n  i1: y = 0\nevents\nend\n")
    result = run_cli("prove", str(bad))
    assert result.exit_code == 1
    assert "UNPROVED" not in result.output  # no proving happened


# --- deeply nested formulas ---------------------------------------------------------

DEEP_INVARIANTS = {
    "parens100": "(" * 100 + "x >= 0" + ")" * 100,
    "parens1500": "(" * 1500 + "x >= 0" + ")" * 1500,
    "plus1000": " + ".join(["x"] + ["1"] * 999) + " >= 0",
    "and1000": " & ".join(["x >= 0"] * 1000),
}


@pytest.mark.parametrize("command", [["check"], ["pos"], ["prove"], ["export-smt", "e/i1/INV"]])
@pytest.mark.parametrize("kind", sorted(DEEP_INVARIANTS))
def test_deep_formula_is_a_syntax_diagnostic(tmp_path, kind, command):
    path = tmp_path / "deep.ebh"
    path.write_text(
        f"machine deep\nvariables x\ninvariants\n  i1: {DEEP_INVARIANTS[kind]}\n"
        "events\n  event e\n  then\n    a1: x := x + 1\n  end\nend\n"
    )
    result = run_cli(command[0], str(path), *command[1:])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a RecursionError
    assert "Traceback" not in result.output
    [line] = result.output.splitlines()
    assert line.startswith(f"{path}:4:")
    assert line.endswith(": syntax: formula nested deeper than 50 levels")
    if kind.startswith("parens"):
        assert line.startswith(f"{path}:4:57:")  # the 51st parenthesis


@pytest.mark.parametrize("command, code", [(["pos"], 0), (["prove"], 1), (["export-smt", "e/MRG"], 0)])
def test_wide_merge_is_no_recursion_error(tmp_path, command, code):
    # the merge goal joins 2 x 1,100 guards, each level of which a
    # left-deep conjunction would make a level of recursion
    def event(name):
        guards = "\n".join(f"    g{k}: x /= {k}" for k in range(1_100))
        return f"  event {name}\n  where\n{guards}\n  end\n"

    (tmp_path / "wide_a.ebh").write_text(f"machine wide_a\nvariables x\nevents\n{event('e1')}{event('e2')}end\n")
    path = tmp_path / "wide_c.ebh"
    path.write_text("machine wide_c refines wide_a\nvariables x\nevents\n  event e refines e1, e2\n  end\nend\n")
    result = run_cli(command[0], str(path), *command[1:])
    assert result.exit_code == code, result.output[-500:]
    assert result.exception is None or isinstance(result.exception, SystemExit)  # not a RecursionError
    assert "Traceback" not in result.output


# --- export-smt ------------------------------------------------------------------


def test_export_smt_command_prints_script():
    result = run_cli("export-smt", str(FIXTURES / "hypSel0.ebh"), "set/hypSel0_1/INV")
    assert result.exit_code == 0
    assert result.output.startswith("; set/hypSel0_1/INV\n")
    assert "(check-sat)" in result.output


def test_export_smt_respect_selection_flag():
    full = run_cli("export-smt", str(FIXTURES / "hypSel0.ebh"), "set/hypSel0_1/INV")
    slim = run_cli(
        "export-smt",
        str(FIXTURES / "hypSel0.ebh"),
        "set/hypSel0_1/INV",
        "--respect-selection",
    )
    n = sum(1 for line in full.output.splitlines() if line.startswith("(assert"))
    m = sum(1 for line in slim.output.splitlines() if line.startswith("(assert"))
    assert n == m + 1


def test_export_smt_unknown_obligation():
    result = run_cli("export-smt", str(FIXTURES / "hypSel0.ebh"), "no/such/PO")
    assert result.exit_code == 1
    assert "no obligation named" in result.output


def test_export_smt_prints_the_initialisations_hint_diagnostics(tmp_path):
    # the initialisation cannot see invariant i2; exporting another
    # event's obligation still reports that, as `pos` and `prove` do
    path = tmp_path / "use1.ebh"
    path.write_text(USE_ON_INITIALISATION)
    diagnostic = (
        f"{path}:12:5: unresolved-hint-label: hint label 'i2' is not a hypothesis of INITIALISATION/i1/INV\n"
    )
    pog = run_cli("export-smt", str(path), "step/i1/INV", "--hint-mode", "pog")
    assert pog.exit_code == 0
    assert pog.output.startswith(diagnostic + "; step/i1/INV\n")
    assert run_cli("prove", str(path), "--hint-mode", "pog").output.startswith(diagnostic)
    tactic = run_cli("export-smt", str(path), "step/i1/INV")
    assert tactic.exit_code == 0
    assert "unresolved-hint-label" not in tactic.output
    unknown = run_cli("export-smt", str(path), "nosuch/i1/INV", "--hint-mode", "pog")
    assert unknown.exit_code == 1
    assert unknown.output == diagnostic + "error: no obligation named 'nosuch/i1/INV'; try 'ebhint pos'\n"


def test_export_smt_generates_only_the_named_owner(monkeypatch, tmp_path):
    path = tmp_path / "use1.ebh"
    path.write_text(USE_ON_INITIALISATION)
    generated = []
    original = cli.generate

    def recording(model, owner=None):
        poset = original(model, owner)
        generated.append((owner, poset.names()))
        return poset

    monkeypatch.setattr(cli, "generate", recording)
    assert run_cli("export-smt", str(path), "step/i2/INV").exit_code == 0
    assert generated == [("step", ("step/i1/INV", "step/i2/INV"))]
    generated.clear()
    assert run_cli("export-smt", str(path), "step/i2/INV", "--hint-mode", "pog").exit_code == 0
    assert generated == [
        ("step", ("step/i1/INV", "step/i2/INV")),
        ("INITIALISATION", ("INITIALISATION/i1/INV", "INITIALISATION/i2/INV")),
    ]


def test_export_smt_pog_mode_child():
    result = run_cli(
        "export-smt",
        str(FIXTURES / "case0.ebh"),
        "set/case0_1/INV/case1",
        "--hint-mode",
        "pog",
    )
    assert result.exit_code == 0
    assert "; case+" in result.output


# --- interface basics -------------------------------------------------------------


def test_help_lists_subcommands():
    result = run_cli("--help")
    for sub in ("check", "pos", "prove", "export-smt"):
        assert sub in result.output


def test_version_flag():
    result = run_cli("--version")
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def _launch(*args: str) -> subprocess.Popen:
    """`PYTHONPATH=src python -m ebhint.cli ARGS...`, from the repository root."""
    root = Path(ebhint.__file__).resolve().parents[2]
    return subprocess.Popen(
        [sys.executable, "-m", "ebhint.cli", *args],
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_version_flag_without_installation():
    # README's `PYTHONPATH=src python -m ebhint.cli --version`, from the repository root
    stdout, stderr = (child := _launch("--version")).communicate(timeout=60)
    assert (child.returncode, stdout, stderr) == (0, f"ebhint, version {ebhint.__version__}\n", "")


HYPSEL0 = str(FIXTURES / "hypSel0.ebh")
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "check-without-files": ["check"],
    "prove-without-file": ["prove"],
    "timeout-0": ["prove", HYPSEL0, "--timeout-ms", "0"],
    "timeout-x": ["prove", HYPSEL0, "--timeout-ms", "x"],
    "hint-mode-bogus": ["prove", HYPSEL0, "--hint-mode", "bogus"],
    "format-xml": ["pos", HYPSEL0, "--format", "xml"],
    "abbreviated-option": ["prove", HYPSEL0, "--time", "5"],
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_two(args):
    stdout, stderr = (child := _launch(*args)).communicate(timeout=60)
    assert (child.returncode, stdout) == (2, "")
    assert stderr and "Traceback" not in stderr
    result = run_cli(*args)
    assert (result.exit_code, result.stdout) == (2, "")


def test_report_into_a_directory_is_a_usage_error(tmp_path):
    stdout, stderr = (child := _launch("prove", HYPSEL0, "--json", str(tmp_path))).communicate(timeout=60)
    assert (child.returncode, stdout) == (2, "")  # before any obligation is proved
    assert stderr and "Traceback" not in stderr
    result = run_cli("prove", HYPSEL0, "--json", str(tmp_path))
    assert (result.exit_code, result.stdout) == (2, "")
    assert list(tmp_path.iterdir()) == []


def test_closing_stdout_early_is_quiet(generated):
    # big1's listing (1.37 MB) outgrows a pipe's buffer, so writing it
    # meets the closed end
    with _launch("pos", generated["big1.ebh"], "--format", "json") as child:
        assert child.stdout.readline() == "{\n"
        child.stdout.close()
        stderr = child.stderr.read()
        child.wait(timeout=60)
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
