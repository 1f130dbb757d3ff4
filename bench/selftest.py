"""Self-test of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

1. The same seed gives byte-identical inputs twice; another seed does not.
2. The references hold on this code: a short run of each workload
   reports no failed operation and exits 0.
3. A deliberately wrong expectation is caught: it raises failed_share
   and gives a non-zero exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import gen
import run


def inputs(workload: str, seed: int) -> bytes:
    """Everything a workload hands the program, as bytes."""
    work = run.WORK / f"selftest-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = run.WORKLOADS[workload](seed, work).inputs()
        for path in sorted(work.iterdir()):
            data += path.name.encode() + b"\0" + path.read_bytes()
        return data
    finally:
        shutil.rmtree(work, ignore_errors=True)


def short_run(workload: str, seed: int) -> tuple[int, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1"])
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def _wrong_model_expectation(seed: int, count: int):
    cases = original_models(seed, count)
    case = cases[0]
    name = next(n for n, v in case.expected.items() if v == gen.PROVED)
    case.expected[name] = gen.UNPROVED
    case.refutations[name] = {}
    return cases


def _wrong_obligation_count(seed: int):
    cases = original_frontend(seed)
    cases[0].names.pop()
    return cases


original_models = gen.models_corpus
original_frontend = gen.frontend_corpus


def main() -> int:
    sys.path[:0] = [str(run.SRC), str(run.ORACLE.parent)]
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            failures.append(message)

    for workload in run.WORKLOADS:
        first, second, other = inputs(workload, 7), inputs(workload, 7), inputs(workload, 8)
        expect(first == second, f"{workload}: seed 7 gives byte-identical inputs twice ({len(first)} bytes)")
        expect(first != other, f"{workload}: seed 8 gives other inputs")

    for workload in run.WORKLOADS:
        code, result, text = short_run(workload, 7)
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               f"{workload}: references hold ({result['attempted']} operations, {result['failed']} failed)")

    for workload, attr, wrong in (
        ("models", "models_corpus", _wrong_model_expectation),
        ("frontend", "frontend_corpus", _wrong_obligation_count),
    ):
        setattr(gen, attr, wrong)
        try:
            code, result, text = short_run(workload, 7)
        finally:
            setattr(gen, attr, {"models_corpus": original_models, "frontend_corpus": original_frontend}[attr])
        share = next(float(line.split()[1]) for line in text.splitlines() if line.strip().startswith("failed_share"))
        expect(code != 0 and not result["correct"] and share > 0,
               f"{workload}: a wrong expectation fails the run (exit {code}, failed_share {share:.3f})")

    print(f"{len(failures)} of the checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
