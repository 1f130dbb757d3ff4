"""Command line interface.

    ebhint check FILES...           parse and check models
    ebhint pos FILE                 list proof obligations
    ebhint prove FILE               generate and prove obligations
    ebhint export-smt FILE PO_NAME  print one obligation as SMT-LIB 2

Exit codes: 0 success (and, for prove, everything proved), 1 semantic
problems or unproved obligations, 2 unreadable input.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .diagnostics import Diagnostic
from .model import Model, PoSet
from .parser import load_model
from .pog import apply_hints_pog, check_new_events, generate
from .printer import print_formula
from .prover import PROVED, UNPROVED, Memo, ProofResult, ProveOptions, prove_obligation
from .smtlib import export_smt
from .wellformed import wellformed

_HINT_MODE = click.option(
    "--hint-mode",
    type=click.Choice(["tactic", "pog"]),
    default="tactic",
    show_default=True,
    help="Apply hints as prover tactics or by rewriting the obligations.",
)


def _with_path(diags: list[Diagnostic], path: str) -> list[Diagnostic]:
    """Give diagnostics raised on an already loaded model the file's path."""
    return [d if d.path else replace(d, path=str(Path(path))) for d in diags]


def _load(path: str) -> tuple[Model | None, list[Diagnostic]]:
    try:
        model, diags = load_model(path)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)
    if model is not None:
        extra = wellformed(model) + check_new_events(model)
        diags = diags + _with_path(extra, path)
        if extra:
            model = None
    return model, diags


def _report_diagnostics(diags: list[Diagnostic]) -> None:
    for d in diags:
        click.echo(d.render())


def _obligations(path: str, hint_mode: str) -> PoSet:
    model, diags = _load(path)
    if diags:
        _report_diagnostics(diags)
        raise SystemExit(1)
    assert model is not None
    poset = generate(model)
    if hint_mode == "pog":
        poset, hint_diags = apply_hints_pog(poset)
        for d in _with_path(hint_diags, path):
            click.echo(d.render(), err=True)
    return poset


@click.group()
@click.version_option(__version__, prog_name="ebhint")
def main() -> None:
    """A miniature verifier for hint-annotated machine models."""


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path())
def check(files: tuple[str, ...]) -> None:
    """Parse FILES and report well-formedness problems."""
    failed = False
    for path in files:
        _, diags = _load(path)
        if diags:
            failed = True
            _report_diagnostics(diags)
    raise SystemExit(1 if failed else 0)


@main.command()
@click.argument("file", type=click.Path())
@_HINT_MODE
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Output format.",
)
def pos(file: str, hint_mode: str, fmt: str) -> None:
    """List the proof obligations of FILE."""
    poset = _obligations(file, hint_mode)
    if fmt == "json":
        payload = {
            "machine": poset.source_machine,
            "mode": hint_mode,
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
        click.echo(json.dumps(payload, indent=2))
        return
    for po in poset.obligations:
        click.echo(po.name)
        click.echo(f"  kind: {po.kind}")
        if po.hint_applied:
            click.echo(f"  hint: {po.hint_applied}")
        selected = " ".join(po.sequent.selected_labels())
        click.echo(f"  selected: {selected}" if selected else "  selected: (none)")
        click.echo(f"  goal: {print_formula(po.sequent.goal)}")


@main.command()
@click.argument("file", type=click.Path())
@_HINT_MODE
@click.option("--lasso", is_flag=True, help="Grow selections to their identifier closure.")
@click.option("--all-hyps", is_flag=True, help="Select every hypothesis.")
@click.option(
    "--timeout-ms",
    type=click.IntRange(min=1),
    default=2000,
    show_default=True,
    help="Prover budget per obligation.",
)
@click.option(
    "--json",
    "json_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Also write a JSON report to this file.",
)
def prove(file: str, hint_mode: str, lasso: bool, all_hyps: bool, timeout_ms: int, json_path: str | None) -> None:
    """Prove the obligations of FILE, honouring its hints."""
    poset = _obligations(file, hint_mode)
    options = ProveOptions(lasso=lasso, all_hyps=all_hyps, timeout_ms=timeout_ms)
    memo = Memo()  # theory results shared by this command's obligations
    results: list[tuple[ProofResult, float]] = []
    for po in poset.obligations:
        start = time.perf_counter()
        result = prove_obligation(po, options=options, memo=memo)
        results.append((result, (time.perf_counter() - start) * 1000.0))
        click.echo(f"{result.status.upper()} {result.name}")

    total = len(results)
    proved = sum(1 for r, _ in results if r.status == PROVED)
    unproved = sum(1 for r, _ in results if r.status == UNPROVED)
    unsupported = total - proved - unproved
    click.echo(
        f"summary: {total} obligations, {proved} proved, "
        f"{unproved} unproved, {unsupported} unsupported"
    )

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
            "summary": {
                "total": total,
                "proved": proved,
                "unproved": unproved,
                "unsupported": unsupported,
            },
        }
        try:
            Path(json_path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)

    raise SystemExit(0 if proved == total else 1)


@main.command("export-smt")
@click.argument("file", type=click.Path())
@click.argument("po_name")
@_HINT_MODE
@click.option(
    "--respect-selection",
    is_flag=True,
    help="Assert only the selected hypotheses.",
)
def export_smt_command(file: str, po_name: str, hint_mode: str, respect_selection: bool) -> None:
    """Print one obligation of FILE as an SMT-LIB 2 script."""
    poset = _obligations(file, hint_mode)
    po = poset.get(po_name)
    if po is None:
        click.echo(f"error: no obligation named {po_name!r}; try 'ebhint pos'", err=True)
        raise SystemExit(1)
    click.echo(export_smt(po, respect_selection=respect_selection), nl=False)


if __name__ == "__main__":
    main()
