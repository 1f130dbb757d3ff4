"""Command line interface.

    ebhint check FILES...           parse and check models
    ebhint pos FILE                 list proof obligations
    ebhint prove FILE               generate and prove obligations
    ebhint export-smt FILE PO_NAME  print one obligation as SMT-LIB 2

Exit codes: 0 success (and, for prove, everything proved), 1 semantic
problems or unproved obligations, 2 unreadable input or a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .diagnostics import Diagnostic
from .model import INITIALISATION, USE_HYPOTHESIS, Model, PoSet
from .parser import Loader, load_model
from .pog import generate
from .printer import print_formula
from .prover import PROVED, UNPROVED, Memo, ProofResult, ProveOptions, apply_hints_pog, prove_obligation
from .record import replace
from .smtlib import export_smt
from .wellformed import check_new_events, wellformed

_echo = functools.partial(print, flush=True)  # so that stdout and stderr keep their order in one file


def _load(path: str, loader: Loader | None = None) -> tuple[Model | None, list[Diagnostic]]:
    try:
        model, diags = load_model(path, loader)
    except OSError as exc:
        _echo(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if model is not None:
        extra = wellformed(model) + check_new_events(model)
        diags = diags + extra
        if extra:
            model = None
    return model, diags


class _Quoted(dict):
    """Each string's JSON encoding, made on first use."""

    def __missing__(self, text: str) -> str:
        self[text] = quoted = encode_basestring_ascii(text)
        return quoted


def _obligations(path: str, hint_mode: str, owner: str | None = None) -> PoSet:
    """The obligations of the file's machine, or only those of ``owner``
    (see `generate`); in pog mode rewritten by their hints, with the
    hint diagnostics of the whole set on stderr."""
    model, diags = _load(path)
    if diags:
        _echo("\n".join(d.render() for d in diags))
        raise SystemExit(1)
    assert model is not None
    poset = generate(model, owner)
    if hint_mode == "pog":
        poset, hint_diags = apply_hints_pog(poset)
        init = model.machine.initialisation
        if owner not in (None, INITIALISATION) and init and any(h.kind == USE_HYPOTHESIS for h in init.hints):
            # A well-formed model's use hints name visible facts, which
            # every other event's INV obligations hold; only the
            # initialisation's can miss theirs.
            hint_diags = apply_hints_pog(generate(model, INITIALISATION))[1] + hint_diags
        for d in hint_diags:  # they point into the machine's own file
            _echo(replace(d, path=model.machine.path).render(), file=sys.stderr)
    return poset


def check(files: list[str]) -> None:
    """Parse FILES and report well-formedness problems.

    A file that another one refines is checked with it, so each problem
    is printed once, under the first spelling of its file's path.  Each
    file is parsed once."""
    failed = False
    printed: set[tuple] = set()
    loader = Loader()
    for path in files:
        _, diags = _load(path, loader)
        failed = failed or bool(diags)
        for d in diags:
            key = (d.path and Path(d.path).resolve(), d.loc, d.code, d.message)
            if key not in printed:
                printed.add(key)
                _echo(d.render())
    raise SystemExit(1 if failed else 0)


def pos(file: str, hint_mode: str, fmt: str) -> None:
    """List the proof obligations of FILE.

    The INV obligations of one invariant share its primed goal object
    across events, so each goal object is printed once, keyed by
    identity: the poset keeps every goal alive until the command ends.
    The JSON listing has the bytes of ``json.dumps(payload, indent=2)``
    and is written as one list of pieces, joined once."""
    poset = _obligations(file, hint_mode)
    goals: dict[int, str] = {}  # id(goal) -> its print, JSON-encoded for json
    if fmt == "text":
        lines: list[str] = []
        for po in poset.obligations:
            sequent = po.sequent
            goal = goals.get(id(sequent.goal))
            if goal is None:
                goal = goals[id(sequent.goal)] = print_formula(sequent.goal)
            lines += (po.name, f"  kind: {po.kind}")
            if po.hint_applied:
                lines.append(f"  hint: {po.hint_applied}")
            selected = " ".join(sequent.selected_labels())
            lines += (f"  selected: {selected or '(none)'}", f"  goal: {goal}")
        if lines:
            _echo("\n".join(lines))
        return
    quote = encode_basestring_ascii
    labels = _Quoted()
    out = ['{\n  "machine": ', quote(poset.source_machine)]
    out += (',\n  "mode": ', quote(hint_mode), ',\n  "obligations": [')
    opener = '\n    {\n      "name": '
    for po in poset.obligations:
        sequent = po.sequent
        goal = goals.get(id(sequent.goal))
        if goal is None:
            goal = goals[id(sequent.goal)] = quote(print_formula(sequent.goal))
        out += (opener, quote(po.name), ',\n      "kind": ', quote(po.kind), ',\n      "goal": ', goal)
        selected = [labels[h.label] for h in sequent.hypotheses if h.selected]
        if selected:
            out += (',\n      "selectedLabels": [\n        ', ",\n        ".join(selected), "\n      ]")
        else:
            out.append(',\n      "selectedLabels": []')
        hint = "null" if po.hint_applied is None else quote(po.hint_applied)
        out += (',\n      "hintApplied": ', hint, "\n    }")
        opener = ',\n    {\n      "name": '
    out.append("\n  ]\n}" if poset.obligations else "]\n}")
    _echo("".join(out))


def prove(file: str, hint_mode: str, lasso: bool, all_hyps: bool, timeout_ms: int, json_path: str | None) -> None:
    """Prove the obligations of FILE, honouring its hints."""
    poset = _obligations(file, hint_mode)
    options = ProveOptions(lasso=lasso, all_hyps=all_hyps, timeout_ms=timeout_ms)
    memo = Memo()  # hypothesis NNFs shared by this command's obligations
    results: list[tuple[ProofResult, float]] = []
    for po in poset.obligations:
        start = time.perf_counter()
        result = prove_obligation(po, options=options, memo=memo)
        results.append((result, (time.perf_counter() - start) * 1000.0))
        _echo(f"{result.status.upper()} {result.name}")

    total = len(results)
    proved = sum(1 for r, _ in results if r.status == PROVED)
    unproved = sum(1 for r, _ in results if r.status == UNPROVED)
    unsupported = total - proved - unproved
    _echo(f"summary: {total} obligations, {proved} proved, {unproved} unproved, {unsupported} unsupported")

    if json_path is not None:
        report = {
            "machine": poset.source_machine,
            "mode": hint_mode,
            "obligations": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "status": r.status,
                    "selectedLabels": list(r.selected_labels),
                    "hintApplied": r.hint_applied,
                    "traceSummary": r.trace_summary(),
                    "durationMillis": round(ms, 3),
                }
                for r, ms in results
            ],
            "summary": {"total": total, "proved": proved, "unproved": unproved, "unsupported": unsupported},
        }
        try:
            Path(json_path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            _echo(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2)

    raise SystemExit(0 if proved == total else 1)


def export_smt_command(file: str, po_name: str, hint_mode: str, respect_selection: bool) -> None:
    """Print one obligation of FILE as an SMT-LIB 2 script."""
    poset = _obligations(file, hint_mode, owner=po_name.partition("/")[0])
    po = poset.get(po_name)
    if po is None:
        _echo(f"error: no obligation named {po_name!r}; try 'ebhint pos'", file=sys.stderr)
        raise SystemExit(1)
    _echo(export_smt(po, respect_selection=respect_selection), end="")



class _Parser(argparse.ArgumentParser):
    """No abbreviated options, and ``--help`` without ``-h``; subcommands too."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _timeout(text: str) -> int:
    if not text.strip().lstrip("+").isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return int(text)


def _report_path(text: str) -> str:
    if os.path.isdir(text) or (os.path.exists(text) and not os.access(text, os.W_OK)):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory or not writable")  # before any proving
    return text


@functools.cache  # built once per process
def _parser() -> _Parser:
    parser = _Parser(prog="ebhint", description="A miniature verifier for hint-annotated machine models.")
    parser.add_argument("--version", action="version", version=f"ebhint, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, function, *positionals: str, hint_mode: bool = True) -> _Parser:
        sub = commands.add_parser(name, help=function.__doc__.partition("\n")[0], description=function.__doc__)
        sub.set_defaults(command=function)
        for positional in positionals:
            sub.add_argument(positional.lower(), metavar=positional)
        if hint_mode:
            sub.add_argument("--hint-mode", choices=["tactic", "pog"], default="tactic",
                             help="Apply hints as prover tactics or by rewriting the obligations (default: tactic).")
        return sub

    command("check", check, hint_mode=False).add_argument("files", nargs="+", metavar="FILES")
    command("pos", pos, "FILE").add_argument("--format", dest="fmt", choices=["text", "json"], default="text",
                                             help="Output format (default: text).")
    sub = command("prove", prove, "FILE")
    sub.add_argument("--lasso", action="store_true", help="Grow selections to their identifier closure.")
    sub.add_argument("--all-hyps", action="store_true", help="Select every hypothesis.")
    sub.add_argument("--timeout-ms", type=_timeout, default=ProveOptions.timeout_ms, metavar="N",
                     help="Prover budget per obligation (default: %(default)s).")
    sub.add_argument("--json", dest="json_path", type=_report_path, metavar="FILE", help="Also write a JSON report.")
    command("export-smt", export_smt_command, "FILE", "PO_NAME").add_argument(
        "--respect-selection", action="store_true", help="Assert only the selected hypotheses.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names; return 0 when it returns."""
    args = vars(_parser().parse_args(argv))  # a usage error raises SystemExit(2), as a command may
    try:
        args.pop("command")(**args)
    except BrokenPipeError:  # the reader closed stdout early: send the rest, also at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
    return 0


main.main = lambda args, **_: main(args)  # bench/run.py's click-style call, until ROADMAP direction 1 drops it

if __name__ == "__main__":
    sys.exit(main())
