"""The README's library section: its Python examples run as written,
from the repository root, and the names it lists are exported."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import ebhint

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert blocks
    monkeypatch.chdir(ROOT)
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        lines = out.getvalue().splitlines()
        # every obligation of case0.ebh proves, set/case0_1/INV only with its split hint
        assert lines and all(line.startswith("proved ") for line in lines), out.getvalue()


def test_listed_prover_pieces_exist():
    (listing,) = re.findall(r"prover pieces are exposed individually\s+\((.*?)\)", README, re.S)
    names = re.findall(r"`(\w+)`", listing)
    assert len(names) >= 5
    assert [n for n in names if not hasattr(ebhint, n)] == []
