"""Time `ebhint prove` on a big machine, by default, with `--all-hyps` and
with a `--json` report, and `ebhint pos --hint-mode pog --format json` on it.

    python tests/scale_probe.py [--seed N] [--repeat K]

Writes big1, the first machine of `frontend_corpus(seed)` in
`bench/gen.py` (seed 101 by default; 20 variables, 50 invariants and 50
events, 2,500 INV obligations), to a temporary directory and runs
`ebhint prove` on it in-process, K times per mode (3 by default), then
`prove --json <tmp>/report.json` K times, then `pos` K times.  Prints
one line per mode: the best wall time and the command's summary line;
then one line for `prove --json`: the best wall time and the number of
records in the report; then one line for `pos`: the best wall time and
the number of obligations it listed.  Reports only, and asserts
nothing.  Standard library and `bench/gen.py` only; not a test module.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave bench/ as it is

import gen  # noqa: E402
from ebhint.cli import main as ebhint  # noqa: E402

MODES = {"default": [], "--all-hyps": ["--all-hyps"]}
POS = ["--hint-mode", "pog", "--format", "json"]


def run(args: list[str]) -> tuple[float, str]:
    """Wall time and stdout of one in-process `ebhint` command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            ebhint.main(args=args, prog_name="ebhint", standalone_mode=False)
        except SystemExit:  # 1 when an obligation stays unproved
            pass
    return time.perf_counter() - start, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    case = gen.frontend_corpus(args.seed)[0]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case.files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        path = Path(tmp) / case.target
        for mode, flags in MODES.items():
            runs = [run(["prove", str(path), *flags]) for _ in range(args.repeat)]
            best = min(seconds for seconds, _ in runs)
            summary = runs[-1][1].rstrip("\n").rpartition("\n")[2]
            print(f"scale probe {case.target} {mode}: {best:.3f} s (best of {args.repeat}), {summary}")
        report = Path(tmp) / "report.json"
        best = min(run(["prove", str(path), "--json", str(report)])[0] for _ in range(args.repeat))
        records = len(json.loads(report.read_text(encoding="utf-8"))["obligations"])
        print(f"scale probe {case.target} prove --json: {best:.3f} s (best of {args.repeat}), {records} records")
        runs = [run(["pos", str(path), *POS]) for _ in range(args.repeat)]
        best = min(seconds for seconds, _ in runs)
        listed = len(json.loads(runs[-1][1])["obligations"])
        print(f"scale probe {case.target} pos {' '.join(POS)}: {best:.3f} s (best of {args.repeat}), {listed} obligations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
