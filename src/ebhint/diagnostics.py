"""Diagnostics shared by the parser, loader, and well-formedness checks."""

from __future__ import annotations

from .formula import Loc
from .record import record


@record
class Diagnostic:
    """A reported problem with a stable machine-readable code."""

    code: str
    message: str
    loc: Loc | None = None
    path: str | None = None

    def render(self) -> str:
        where = self.path or "<model>"
        if self.loc is not None:
            where += f":{self.loc.line}:{self.loc.column}"
        return f"{where}: {self.code}: {self.message}"


def sort_key(d: Diagnostic) -> tuple:
    loc = d.loc or Loc(0, 0)
    return (d.path or "", loc.line, loc.column, d.code, d.message)
