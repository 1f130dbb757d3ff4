"""Time `ebhint prove` on a big machine, by default, with `--all-hyps` and
with a `--json` report, and `ebhint pos --hint-mode pog --format json` on it.

    python tests/scale_probe.py [--seed N] [--repeat K]

First prints one line for startup: the best and median wall time of
LAUNCHES fresh launches of `python -c "import ebhint, ebhint.cli"`, and
of `python -c pass` for the interpreter alone, launched in turn.  Every
`ebhint` command pays that import, and the benchmark's `setup_s` scales
with it.  Then writes big1, the first machine of `frontend_corpus(seed)` in
`bench/gen.py` (seed 101 by default; 20 variables, 50 invariants and 50
events, 2,500 INV obligations), to a temporary directory and runs
`ebhint prove` on it in-process, K times per mode (3 by default), then
`prove --json <tmp>/report.json` K times, then `pos` K times.  Prints
one line per mode: the best wall time, the command's summary line, and
the work of one run, counted by wrappers the probe installs on the
prover for the first run: `decide` calls, search nodes (`_propagate`
calls), difference-graph checks (`_relax`), Fourier-Motzkin (FM)
extensions (`_extend`) and eliminations (`_eliminate`); then one line
for `prove --json`: the best wall time and the number of records in the
report; then one line for `pos`: the best wall time and the number of
obligations it listed.  Then one line per n in
SHIFTED: the best of K wall times of `decide` on the valid
`x in {0..n-1} |- x + 1 in {1..n}`, and its status.  Last, one line for
the `decide` pools of POOL_SEEDS (`gen.PINNED` plus
`gen.random_sequents(seed, 2000, 8)` each, as in the benchmark's
`decide` workload): the number of calls, their summed `visited`
(counted by a `_Search` subclass the probe installs for one more run),
a short sha256 digest of each call's status, reason, counterexample and
`visited`, and the best of K wall times of deciding the whole pool.  The
digest does not depend on PYTHONHASHSEED, so two versions of the prover
that search alike print the same one.  Reports only, and asserts
nothing.  Standard library and `bench/gen.py` only; not a test
module.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave bench/ as it is

import gen  # noqa: E402
from ebhint import parse_predicate, prover  # noqa: E402
from ebhint.cli import main as ebhint  # noqa: E402

MODES = {"default": [], "--all-hyps": ["--all-hyps"]}
POS = ["--hint-mode", "pog", "--format", "json"]
SHIFTED = (400, 800)
COUNTED = {
    "decide": "decide calls",
    "_propagate": "search nodes",
    "_relax": "graph checks",
    "_extend": "FM extensions",
    "_eliminate": "eliminations",
}
POOL_SEEDS = (101, 107)
LAUNCHES = 15


@contextlib.contextmanager
def counted():
    """Counts the calls of each COUNTED prover function while it runs."""
    counts = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(prover, name) for name in COUNTED}

    def wrap(name, function):
        def counting(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counting

    for name, function in originals.items():
        setattr(prover, name, wrap(name, function))
    try:
        yield counts
    finally:
        for name, function in originals.items():
            setattr(prover, name, function)


@contextlib.contextmanager
def searches():
    """Lists the `_Search` of each `decide` call while it runs."""
    made = []
    plain = prover._Search

    class Recording(plain):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    prover._Search = Recording
    try:
        yield made
    finally:
        prover._Search = plain


def decide_pool(sequents: list) -> float:
    """Wall time of `decide` on each sequent in turn."""
    start = time.perf_counter()
    for hyps, goal in sequents:
        prover.decide(hyps, goal)
    return time.perf_counter() - start


def startup() -> str:
    """Best and median wall time of LAUNCHES launches of each startup
    command, the two launched in turn."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    codes = {"import ebhint, ebhint.cli": [], "pass": []}
    for _ in range(LAUNCHES):
        for code, times in codes.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - start)
    return "; ".join(
        f"python -c {code!r}: best {min(times) * 1000:.1f} ms, median {statistics.median(times) * 1000:.1f} ms"
        for code, times in codes.items()
    )


def run(args: list[str]) -> tuple[float, str]:
    """Wall time and stdout of one in-process `ebhint` command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            ebhint(args)
        except SystemExit:  # 1 when an obligation stays unproved
            pass
    return time.perf_counter() - start, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"scale probe startup ({LAUNCHES} launches): {startup()}")
    case = gen.frontend_corpus(args.seed)[0]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case.files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        path = Path(tmp) / case.target
        for mode, flags in MODES.items():
            with counted() as counts:
                runs = [run(["prove", str(path), *flags])]
            runs += [run(["prove", str(path), *flags]) for _ in range(args.repeat - 1)]
            best = min(seconds for seconds, _ in runs)
            summary = runs[-1][1].rstrip("\n").rpartition("\n")[2]
            work = ", ".join(f"{counts[name]} {what}" for name, what in COUNTED.items())
            print(f"scale probe {case.target} {mode}: {best:.3f} s (best of {args.repeat}), {summary}, {work}")
        report = Path(tmp) / "report.json"
        best = min(run(["prove", str(path), "--json", str(report)])[0] for _ in range(args.repeat))
        records = len(json.loads(report.read_text(encoding="utf-8"))["obligations"])
        print(f"scale probe {case.target} prove --json: {best:.3f} s (best of {args.repeat}), {records} records")
        runs = [run(["pos", str(path), *POS]) for _ in range(args.repeat)]
        best = min(seconds for seconds, _ in runs)
        listed = len(json.loads(runs[-1][1])["obligations"])
        print(f"scale probe {case.target} pos {' '.join(POS)}: {best:.3f} s (best of {args.repeat}), {listed} obligations")
    for n in SHIFTED:
        hyp = parse_predicate("x in {" + ", ".join(map(str, range(n))) + "}")
        goal = parse_predicate("x + 1 in {" + ", ".join(map(str, range(1, n + 1))) + "}")
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            decision = prover.decide((hyp,), goal)
            times.append(time.perf_counter() - start)
        print(f"scale probe decide x in {{0..{n - 1}}} |- x + 1 in {{1..{n}}}: "
              f"{min(times):.3f} s (best of {args.repeat}), {decision.status}")
    sequents = [
        (tuple(parse_predicate(h) for h in hyps), parse_predicate(goal))
        for seed in POOL_SEEDS
        for hyps, goal in list(gen.PINNED) + gen.random_sequents(seed, 2000, 8)
    ]
    calls = []
    with searches() as made:
        for hyps, goal in sequents:
            d = prover.decide(hyps, goal)
            visited = made.pop().visited if made else 0  # none when the NNF stops
            calls.append([d.status, d.reason, d.counterexample, visited])
    best = min(decide_pool(sequents) for _ in range(args.repeat))
    digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()[:12]
    print(f"scale probe decide pools {', '.join(map(str, POOL_SEEDS))}: {len(calls)} calls, "
          f"{sum(call[3] for call in calls)} visited, digest {digest}, "
          f"{best:.3f} s (best of {args.repeat})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
