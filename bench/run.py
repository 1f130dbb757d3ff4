"""The ebhint benchmark: three seeded, closed-loop workloads.

    python3 bench/run.py --workload models|frontend|decide --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  One caller issues one operation at a
time and waits for its verdict, as a user or a CI job does; there are
no threads.  The package is imported from `src/` (it need not be
installed); the grid oracle comes from `tests/oracle.py`.

* `models`: `ebhint prove --json` on hint-annotated machines built from
  the paper's patterns and on the five fixtures, in both hint modes,
  through the click command in-process.
* `frontend`: `ebhint check`, `pos --hint-mode pog --format json` and
  `export-smt` on large generated machines and a five-level refinement
  chain; the decision core is never called.
* `decide`: `ebhint.prover.decide` on seeded random sequents and on the
  pinned pathological ones in `gen.PINNED`.

Every verdict is checked against a reference that does not come from
the prover (see `gen.py`).

The speed a shared host gives this process switches between a fast
and a slow state, up to 1.8 times apart, for a second to minutes at a
time.  So every time is reported at a reference speed.  While the
operations run, a timer signal runs a short, fixed calibration loop
(`calibration_loop`) every PROBE_INTERVAL_S seconds; each operation's
time, less the time of the loops that interrupted it, is scaled by
CALIBRATION_REF_MS over the mean time of the loops that ran during it
and within PROBE_WINDOW_S of it (`SpeedProbe`).  For `setup_s` the loop
runs before and after each launch.  The table prints the raw wall
figures and the scales next to them.  On top of that a run repeats
whole rounds of the inputs, at least MIN_ROUNDS of them, and takes each
operation at its best round, so that a short stall does not show.  The
string hash seed is fixed (the run re-executes itself to set it),
because the order of set iteration steers the proof search and moves
the slowest sequent by 20% from one hash seed to another.

The run prints a table of metrics with their sample counts and, as its
last line, one JSON object: end-to-end metrics with `--trace 0`; with
`--trace 1`, the per-layer metrics of a traced pass over the rounds an
untraced pass made in the first half of the time.  The exit code is 0
when no operation failed, 1 when some did, and 2 when the program
cannot be run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
ORACLE = ROOT / "tests" / "oracle.py"
WORK = HERE / ".work"
OUT = HERE / ".out"

SETUP_LAUNCHES = 5  # before and again after the timed section
MIN_ROUNDS = 3
CALIBRATION_LOOPS = 1000
CALIBRATION_REF_MS = 0.8  # the calibration loop's time at the reference speed
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.1
MODEL_CASES = 45  # with the five fixtures, 100 operations a round
DECIDE_POOL = 2000
DECIDE_MAX_HYPS = 8
EXPORTS_PER_MACHINE = 6  # 13 machines, 104 operations a round

sys.path.insert(0, str(HERE))
import gen  # noqa: E402


class Tally:
    """Outcome counts of one timed pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.budget = 0
        self.units = 0  # obligations brought to a verdict, listed or decided
        self.decided = 0
        self.decidable = 0
        self.problems: list[str] = []
        self.refuted: list[tuple[int, str]] = []  # (case, obligation) the prover refuted

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


class Cli:
    """Runs `ebhint` commands in-process through the click command.

    One pair of buffers serves every call: click caches a wrapper for
    each output stream it sees, for the life of the process, so a fresh
    buffer per call would keep every command's output alive.
    """

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def __call__(self, args: list[str]) -> tuple[int, str, str]:
        """Returns (exit code, stdout, stderr)."""
        from ebhint.cli import main

        for buffer in (self.out, self.err):
            buffer.seek(0)
            buffer.truncate()
        code = 0
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                main.main(args=args, prog_name="ebhint", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, self.out.getvalue(), self.err.getvalue()


def _root(name: str) -> str:
    return name[: -len("/case1")] if name.endswith(("/case1", "/case2")) else name


# --- workloads ---------------------------------------------------------------


class Models:
    """`ebhint prove --json` on each case, in tactic and then in pog mode."""

    def __init__(self, seed: int, work: Path) -> None:
        texts = {p.name: p.read_text(encoding="utf-8") for p in FIXTURES.glob("*.ebh")}
        self.cases = gen.fixture_cases(texts) + gen.models_corpus(seed, MODEL_CASES)
        for case in self.cases:
            for name, text in case.files.items():
                (work / name).write_text(text, encoding="utf-8")
        self.work = work
        self.cli = Cli()
        self.report = work / "report.json"
        self.last_tactic: dict[int, dict[str, str]] = {}
        self.size = 2 * len(self.cases)

    def inputs(self) -> bytes:
        return json.dumps([vars(c) for c in self.cases], sort_keys=True).encode()

    def op(self, j: int):
        # each case in tactic and then in pog mode
        return divmod(j, 2)

    def run(self, op, tracer):
        k, m = op
        args = ["prove", str(self.work / self.cases[k].target), "--hint-mode", ("tactic", "pog")[m],
                "--json", str(self.report)]
        return tracer.span("cli.command", self.cli, args) if tracer else self.cli(args)

    def check(self, op, result, tally: Tally) -> None:
        k, m = op
        case = self.cases[k]
        code, _, err = result
        if not self.report.exists():
            tally.fail(f"{case.target}: exit code {code}, no report {err.strip()[:200]}")
            return
        report = json.loads(self.report.read_text(encoding="utf-8"))
        self.report.unlink()
        roots: dict[str, str] = {}
        countered: set[str] = set()
        timeouts = [e["name"] for e in report["obligations"] if "decide(timeout)" in e["traceSummary"]]
        if timeouts:
            tally.budget += 1
            tally.fail(f"{case.target}: verdict of {timeouts[0]} depends on the clock")
        for entry in report["obligations"]:
            tally.units += 1
            root = _root(entry["name"])
            if "countermodel found" in entry["traceSummary"]:
                countered.add(root)
            if roots.get(root) != "unproved":
                roots[root] = entry["status"]
        expected_code = 0 if all(v == gen.PROVED for v in case.expected.values()) else 1
        if code != expected_code or err:
            tally.fail(f"{case.target}: exit code {code}, expected {expected_code} {err.strip()}")
        if roots != case.expected:
            wrong = sorted(n for n in set(roots) | set(case.expected) if roots.get(n) != case.expected.get(n))
            tally.fail(f"{case.target} ({('tactic', 'pog')[m]}): verdicts differ from the reference at {wrong[:3]}")
        if m == 0:
            self.last_tactic[k] = roots
        elif self.last_tactic.pop(k, roots) != roots:
            tally.fail(f"{case.target}: tactic and pog modes disagree")
        tally.decidable += len(case.expected)
        for name, verdict in case.expected.items():
            if roots.get(name) != verdict:
                continue
            if verdict == gen.PROVED:
                tally.decided += 1
            elif name in countered:
                tally.refuted.append((k, name))

    def finish(self, tally: Tally, calls: list) -> None:
        """Confirm each refutation the prover reported with the
        reference state, evaluated by the independent oracle."""
        import oracle
        from ebhint import generate, load_model

        confirmed: dict[tuple[int, str], bool] = {}
        for key in tally.refuted:
            if key not in confirmed:
                k, name = key
                case = self.cases[k]
                model, _ = load_model(self.work / case.target)
                po = generate(model).get(name)
                state = dict(case.refutations[name])
                hyps = tuple(h.predicate for h in po.sequent.hypotheses if h.selected)
                for ident in oracle.collect_identifiers(po.sequent.goal).union(
                    *(oracle.collect_identifiers(h) for h in hyps)
                ):
                    state.setdefault(ident, 0)
                confirmed[key] = oracle.holds_at(hyps, po.sequent.goal, state)
                if not confirmed[key]:
                    tally.fail(f"{case.target}: reference state does not refute {name}")
            tally.decided += confirmed[key]


class Frontend:
    """`check`, `pos` and `export-smt` on each machine."""

    def __init__(self, seed: int, work: Path) -> None:
        self.cases = gen.frontend_corpus(seed)
        self.cli = Cli()
        rng = random.Random(seed)
        self.ops: list[tuple] = []
        for k, case in enumerate(self.cases):
            for name, text in case.files.items():
                (work / name).write_text(text, encoding="utf-8")
            self.ops.append(("check", k, ["check", *(str(work / f) for f in case.check_files)]))
            target = str(work / case.target)
            self.ops.append(("pos", k, ["pos", target, "--hint-mode", "pog", "--format", "json"]))
            for name in rng.sample(case.names, EXPORTS_PER_MACHINE):
                self.ops.append(("export", k, ["export-smt", target, name, "--hint-mode", "pog"]))
        self.size = len(self.ops)

    def inputs(self) -> bytes:
        return json.dumps([[vars(c) for c in self.cases], self.ops], sort_keys=True).encode()

    def finish(self, tally: Tally, calls: list) -> None:
        pass

    def op(self, j: int):
        return self.ops[j]

    def run(self, op, tracer):
        return tracer.span("cli.command", self.cli, op[2]) if tracer else self.cli(op[2])

    def check(self, op, result, tally: Tally) -> None:
        kind, k, args = op
        code, out, err = result
        case = self.cases[k]
        if code != 0 or err:
            tally.fail(f"{' '.join(args[:2])}: exit code {code} {err.strip()[:200]}")
            return
        if kind == "check":
            if out:
                tally.fail(f"check {case.target}: unexpected diagnostics {out[:200]}")
        elif kind == "pos":
            names = [po["name"] for po in json.loads(out)["obligations"]]
            tally.units += len(names)
            tally.decidable += len(case.names)
            if names == case.names:
                tally.decided += len(names)
            else:
                tally.fail(f"pos {case.target}: {len(names)} obligations, counting law says {len(case.names)}")
        else:
            tally.units += 1
            tally.decidable += 1
            if "(check-sat)" in out:
                tally.decided += 1
            else:
                tally.fail(f"export-smt {case.target} {args[2]}: no (check-sat) in the script")


class Decide:
    """`decide` on each sequent, with no deadline and the default branch cap."""

    def __init__(self, seed: int, work: Path) -> None:
        import ebhint.prover
        from ebhint import parse_predicate

        self.prover = ebhint.prover  # looked up per call, so that tracing sees the calls
        self.texts = list(gen.PINNED) + gen.random_sequents(seed, DECIDE_POOL, DECIDE_MAX_HYPS)
        self.sequents = [
            (tuple(parse_predicate(h) for h in hyps), parse_predicate(goal)) for hyps, goal in self.texts
        ]
        self.verdicts: dict[int, object] = {}
        self.size = len(self.sequents)

    def inputs(self) -> bytes:
        return json.dumps(self.texts).encode()

    def op(self, j: int) -> int:
        # a round is the pinned sequents, then the random pool
        return j

    def run(self, op, tracer):
        hyps, goal = self.sequents[op]
        return self.prover.decide(hyps, goal)

    def check(self, op, result, tally: Tally) -> None:
        tally.units += 1
        tally.decidable += 1
        first = self.verdicts.setdefault(op, result)
        if first != result:
            tally.fail(f"sequent {op}: verdict changed between calls ({first} then {result})")
        if result.reason in ("branch cap exceeded", "timeout"):
            tally.budget += 1

    def finish(self, tally: Tally, calls: list) -> None:
        """Check every distinct verdict against the grid oracle and count
        the decided calls."""
        import oracle

        good: dict[int, bool] = {}
        for op, d in self.verdicts.items():
            hyps, goal = self.sequents[op]
            if d.status == "proved":
                cex = oracle.grid_counterexample(hyps, goal)
                good[op] = cex is None
                if cex is not None:
                    tally.fail(f"sequent {op}: PROVED, but the grid oracle refutes it at {cex}")
            elif d.counterexample is not None:
                good[op] = oracle.holds_at(hyps, goal, dict(d.counterexample))
                if not good[op]:
                    tally.fail(f"sequent {op}: counterexample {d.counterexample} does not refute it")
            else:
                good[op] = False
        tally.decided += sum(good[op] for op in calls)


WORKLOADS = {"models": Models, "frontend": Frontend, "decide": Decide}


# --- measurement ---------------------------------------------------------------


def calibration_loop() -> None:
    """A fixed piece of interpreter work of the kind the program does:
    tuples, lists, small frozensets and dict updates."""
    counts: dict = {}
    for i in range(CALIBRATION_LOOPS):
        item = (i, ("x", i % 7), [i, i + 1])
        counts[item[1]] = counts.get(item[1], 0) + len(item[2])
        frozenset((i % 5, i % 3))


def calibrate() -> float:
    """Seconds of one calibration loop, run with the collector off, so
    that the program's heap cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_scale(loop_seconds: list[float]) -> float:
    """Factor that takes a time measured while calibration loops took
    `loop_seconds` to the reference speed."""
    return CALIBRATION_REF_MS / 1000.0 / statistics.fmean(loop_seconds)


class SpeedProbe:
    """Samples the speed the host gives this process while it is in use
    as a context manager: a SIGALRM handler runs `calibrate` every
    PROBE_INTERVAL_S seconds of wall time and records when it ran and
    how long it took."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0  # seconds spent in the handler

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.loops.append(calibrate())
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Reference scale for a time measured from `start` to `end`."""
        lo = bisect.bisect_left(self.stamps, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + PROBE_WINDOW_S)
        return reference_scale(self.loops[lo:hi] or self.loops[-1:])


def timed_pass(workload, tally: Tally, seconds: float = 0.0, rounds: int = MIN_ROUNDS, tracer=None):
    """Issue the workload's operations one after another in whole
    rounds of its inputs: at least `rounds` rounds, and more while
    another round ends nearer to `seconds` than stopping does.  Whole
    rounds keep the mix of inputs the same on a slow machine and on a
    fast one.  Returns the wall seconds, each round's median reference
    scale, each operation's best latency over the rounds at the
    reference speed (in round order), and the operations issued."""
    with SpeedProbe() as probe:
        return _timed_pass(workload, tally, seconds, rounds, tracer, probe)


def _timed_pass(workload, tally: Tally, seconds: float, rounds: int, tracer, probe: SpeedProbe):
    timings: list[list[tuple[float, float, float]]] = []  # per round: start, end, probe time
    ops: list = []
    start = now = time.perf_counter()
    # a round starts if it is due to end nearer to `seconds` than stopping now
    while len(timings) < rounds or (now - start) * (1 + 0.5 / len(timings)) < seconds:
        spans = []
        timings.append(spans)
        for j in range(workload.size):
            op = workload.op(j)
            if tracer is not None:
                tracer.item = len(ops)
            spent = probe.spent
            t0 = time.perf_counter()
            try:
                result = workload.run(op, tracer)
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                result = exc
            spans.append((t0, time.perf_counter(), probe.spent - spent))
            tally.attempted += 1
            if isinstance(result, Exception):
                tally.fail(f"operation {op!r} raised {type(result).__name__}: {result}")
            else:
                workload.check(op, result, tally)
            ops.append(op)
        now = time.perf_counter()
    best = [math.inf] * workload.size
    scales = []
    for spans in timings:
        scale = [probe.scale(t0, t1) for t0, t1, _ in spans]
        scales.append(statistics.median(scale))
        best = [min(b, (t1 - t0 - spent) * k) for b, (t0, t1, spent), k in zip(best, spans, scale)]
    return now - start, scales, best, ops


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times of SETUP_LAUNCHES fresh interpreters importing the
    package and its CLI, and their reference scales."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    scales = []
    for _ in range(SETUP_LAUNCHES):
        before = [calibrate() for _ in range(3)]
        t0 = time.perf_counter()
        # no timeout: waiting with one polls the child every 50 ms, which
        # would round every launch up to the next poll
        subprocess.run([sys.executable, "-c", "import ebhint, ebhint.cli"], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
        scales.append(reference_scale(before + [calibrate() for _ in range(3)]))
    return out, scales


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<30} {value:>14.6g} {unit:<6} {note}"


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(workload_name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def _run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    workload = WORKLOADS[workload_name](seed, work)
    setups, setup_scales = setup_seconds()
    tally = Tally()
    print(f"workload {workload_name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    if not trace:
        wall, scales, best, calls = timed_pass(workload, tally, seconds=seconds)
        rss = peak_rss_mb()
    else:
        import tracing

        _, scales, untraced, _ = timed_pass(workload, Tally(), seconds=seconds / 2, rounds=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, scales, best, calls = timed_pass(workload, tally, rounds=len(scales), tracer=tracer)
        finally:
            tracer.uninstall()
        rss = peak_rss_mb()
    more, scales_more = setup_seconds()
    setups += more
    setup_scales += scales_more
    workload.finish(tally, calls)

    # one round at each operation's best time, at the reference speed
    rounds = len(scales)
    ms = sorted(x * 1000.0 for x in best)
    deciles = statistics.quantiles(ms, n=10)
    per_round = tally.units / rounds
    scale_note = f"round scales {min(scales):.3f}-{max(scales):.3f}"
    at_best = f"(n={len(ms)} operations, best of {rounds} rounds, {scale_note})"
    end_to_end = {
        "setup_s": (statistics.median(t * k for t, k in zip(setups, setup_scales)), "s",
                    f"(median of {len(setups)} launches, {statistics.median(setups):.4f} s wall, "
                    f"scales {min(setup_scales):.3f}-{max(setup_scales):.3f})"),
        "obligations_per_s": (per_round * 1000.0 / sum(ms), "1/s",
                              f"({per_round:g} obligations a round, {sum(ms) / 1000.0:.3f} s at best, "
                              f"{wall:.3f} s wall for {rounds} rounds, {scale_note})"),
        "latency_ms.p50": (statistics.median(ms), "ms", at_best),
        "latency_ms.p90": (deciles[8], "ms", at_best),
        "decided_share": (tally.decided / tally.decidable, "ratio", f"(n={tally.decidable} obligations)"),
        "peak_rss_mb": (rss, "MB", "(getrusage, this process)"),
    }
    report = {
        "failed_share": (tally.failed / tally.attempted, "ratio", f"(n={tally.attempted} operations)"),
        "budget_share": (tally.budget / tally.attempted, "ratio", "(branch cap or timeout hits)"),
    }
    label = "end-to-end at the reference speed" + (" (traced pass)" if trace else "")
    print(label)
    for name, (value, unit, note) in {**end_to_end, **report}.items():
        print(_row(name, value, unit, note))
    for problem in tally.problems:
        print(f"  FAILED: {problem}")

    if trace:
        from ebhint.parser import lex

        token_counts: dict[str, int] = {}

        def tokens_of(path: str) -> int:
            if path not in token_counts:
                token_counts[path] = len(lex(Path(path).read_text(encoding="utf-8"), path))
            return token_counts[path]

        # both passes at the reference speed, each operation at its best round
        layer = tracer.metrics(tokens_of, wall, sum(best) / sum(untraced) - 1.0)
        tracer.write(OUT / f"spans-{workload_name}-{seed}.jsonl")
        print(f"per layer (traced pass of {len(calls)} operations, {len(tracer.spans)} spans; share of {wall:.3f} s)")
        for name, (value, unit) in layer.items():
            share = f"({value / wall:6.1%})" if unit == "s" and not name.startswith("trace.") else ""
            print(_row(name, value, unit, share))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in end_to_end.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "ebhint" / "__init__.py", ORACLE, FIXTURES) if not p.exists()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(ORACLE.parent))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


HASH_SEED = "0"

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
