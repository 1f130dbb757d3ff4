"""List the lines of ``src/ebhint`` that no test runs.

    python tests/linetrace.py [pytest arguments]

Runs pytest (by default on ``tests/``) under a line tracer installed
before any test module is imported, then prints every executable line
of ``src/ebhint/*.py`` that never ran, docstrings excluded, as
``path:line: source``, and last a count line.  Standard library only;
the tracer slows the suite down about threefold.  Not a test module.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebhint"


def executable_lines(path: Path) -> set[int]:
    """The lines that hold code, docstrings excluded."""
    source = path.read_text(encoding="utf-8")
    codes, lines = [compile(source, str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(doc.value.value, str):
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main(args: list[str]) -> int:
    import pytest

    ran: set[tuple[str, int]] = set()
    ours: dict[str, str | None] = {}  # co_filename -> its resolved path if in the package, else None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            resolved = os.path.realpath(name)
            ours[name] = resolved if Path(resolved).parent == PACKAGE else None
        if ours[name] is None:
            return None
        ran.add((ours[name], frame.f_lineno))
        return trace

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {n for p, n in ran if p == os.path.realpath(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/ebhint never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
