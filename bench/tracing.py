"""Span tracing for the traced benchmark run (`run.py --trace 1`).

The wrappers are installed on module attributes from the benchmark's
own code; `src/` carries no tracing.  Each call through a wrapped name
records a span (name, start, end, parent span, workload item) and a
few counts taken from its arguments and result.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from pathlib import Path

import ebhint.cli
import ebhint.parser
import ebhint.prover

STEP_NAMES = (
    "intro",
    "splitConjunction",
    "onePoint",
    "tacticSelect",
    "tacticCase",
    "closeSyntactic",
    "decide",
)
BUDGET_REASONS = ("branch cap exceeded", "timeout")


def _generate_info(args, result) -> dict:
    obligations = result.obligations
    return {
        "obligations": len(obligations),
        "hyps": sum(len(po.sequent.hypotheses) for po in obligations),
        "selected": sum(len(po.sequent.selected_labels()) for po in obligations),
    }


def _hints_info(args, result) -> dict:
    poset, _ = result
    return {"case_children": sum(1 for po in poset.obligations if po.name.endswith(("/case1", "/case2")))}


def _decide_info(args, result) -> dict:
    return {"status": result.status, "budget": result.reason in BUDGET_REASONS}


def _prove_info(args, result) -> dict:
    return {"steps": Counter(step.tactic for step in result.trace)}


# module, attribute, span name, function extracting counts (or None)
TARGETS = (
    (ebhint.cli, "load_model", "parser.load", None),
    (ebhint.parser, "try_parse", "parser.parse", lambda args, result: {"path": args[1]}),
    (ebhint.cli, "wellformed", "wellformed", lambda args, result: {"diagnostics": len(result)}),
    (ebhint.cli, "check_new_events", "pog.check_new_events", None),
    (ebhint.cli, "generate", "pog.generate", _generate_info),
    (ebhint.cli, "apply_hints_pog", "pog.apply_hints", _hints_info),
    (ebhint.cli, "prove_obligation", "prover.prove", _prove_info),
    (ebhint.prover, "decide", "prover.decide", _decide_info),
    (ebhint.prover, "case_sequents", "prover.case_sequents", None),
    (ebhint.cli, "print_formula", "printer.print", None),
    (ebhint.cli, "export_smt", "smtlib.export", lambda args, result: {"bytes": len(result.encode())}),
)


class Tracer:
    """Records spans while installed; `item` names the workload item
    that the following calls belong to."""

    def __init__(self) -> None:
        # [name, start, end, parent index, item, info, bookkeeping seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: object = None
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark uses this around each
        CLI command it issues."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, info_fn, fn, args, kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item, None, 0.0]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        if info_fn is not None:
            record[5] = info_fn(args, result)
            record[6] = time.perf_counter() - record[2]
        return result

    def install(self) -> None:
        for module, attr, name, info_fn in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))

            def wrapper(*args, _name=name, _info=info_fn, _fn=original, **kwargs):
                return self._call(_name, _info, _fn, args, kwargs)

            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "item")
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                row = dict(zip(fields, record))
                row["item"] = str(row["item"])
                out.write(json.dumps(row) + "\n")

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans, minus the
        bookkeeping the children's wrappers did after they ended."""
        own = [r[2] - r[1] for r in self.spans]
        for r in self.spans:
            if r[3] >= 0:
                own[r[3]] -= (r[2] - r[1]) + r[6]
        return own

    def metrics(self, tokens_of, traced_wall: float, overhead_share: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every recorded span.  `tokens_of(path)`
        gives the token count of a parsed file, measured outside the
        timed section."""
        own = self.self_times()
        total: Counter = Counter()
        self_total: Counter = Counter()
        count: Counter = Counter()
        decide_ms: list[float] = []
        steps: Counter = Counter()
        info: Counter = Counter()
        tokens = 0
        for r, s in zip(self.spans, own):
            name, duration = r[0], r[2] - r[1]
            total[name] += duration
            self_total[name] += s
            count[name] += 1
            extra = r[5] or {}
            if name == "prover.decide":
                decide_ms.append(duration * 1000.0)
                info["decide_proved"] += extra["status"] == "proved"
                info["budget_hits"] += extra["budget"]
            elif name == "prover.prove":
                steps.update(extra["steps"])
            elif name == "parser.parse":
                tokens += tokens_of(extra["path"])
            else:
                for key, value in extra.items():
                    info[key] += value
        decide_ms.sort()
        q = statistics.quantiles(decide_ms, n=10) if len(decide_ms) >= 2 else [0.0] * 9
        obligations = info["obligations"]
        out: dict[str, tuple[float, str]] = {
            "cli.command_s": (total["cli.command"], "s"),
            "cli.self_s": (self_total["cli.command"], "s"),
            "parser.load_s": (total["parser.load"], "s"),
            "parser.parse_s": (total["parser.parse"], "s"),
            "parser.parses": (count["parser.parse"], "count"),
            "parser.resolve_s": (self_total["parser.load"], "s"),
            "parser.tokens_per_s": (tokens / total["parser.parse"] if total["parser.parse"] else 0.0, "1/s"),
            "wellformed.s": (total["wellformed"], "s"),
            "wellformed.diagnostics": (info["diagnostics"], "count"),
            "pog.generate_s": (total["pog.generate"], "s"),
            "pog.obligations": (obligations, "count"),
            "pog.hyps_per_obligation": (info["hyps"] / obligations if obligations else 0.0, "count"),
            "pog.selected_per_obligation": (info["selected"] / obligations if obligations else 0.0, "count"),
            "pog.apply_hints_s": (total["pog.apply_hints"], "s"),
            "pog.case_children": (info["case_children"], "count"),
            "pog.check_new_events_s": (total["pog.check_new_events"], "s"),
            "prover.prove_s": (total["prover.prove"], "s"),
            "prover.self_s": (self_total["prover.prove"], "s"),
            "prover.decide_s": (total["prover.decide"], "s"),
            "prover.decide_calls": (count["prover.decide"], "count"),
            "prover.decide_ms.p50": (q[4] if decide_ms else 0.0, "ms"),
            "prover.decide_ms.p90": (q[8] if decide_ms else 0.0, "ms"),
            "prover.decide_ms.max": (decide_ms[-1] if decide_ms else 0.0, "ms"),
            "prover.case_sequents_s": (total["prover.case_sequents"], "s"),
            "prover.budget_hits": (info["budget_hits"], "count"),
            "prover.decide_proved_ratio": (
                info["decide_proved"] / count["prover.decide"] if count["prover.decide"] else 0.0,
                "ratio",
            ),
        }
        for step in STEP_NAMES:
            out[f"prover.steps.{step}"] = (steps[step], "count")
        out["printer.print_s"] = (total["printer.print"], "s")
        out["smtlib.export_s"] = (total["smtlib.export"], "s")
        out["smtlib.bytes"] = (info["bytes"], "count")
        out["trace.overhead_share"] = (overhead_share, "ratio")
        out["trace.wall_s"] = (traced_wall, "s")
        return out
