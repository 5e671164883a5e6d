"""In-process traced run of one CLI command, for the per-layer metrics.

`replay` parses the command line with ctxflow's own parser and calls the
command's `cli._cmd_*` function, with the public calls of the layers below
it patched to run under spans. Nothing inside ctxflow is edited: every patch
replaces a module global (or a Linker or Path method) that the package looks
up at call time, and is undone when the command returns. Nested calls, such
as `dependency_order` inside `emit_dag` and `run_framework`, or
`check_acyclic` inside `reduce_all`, get spans of their own, so each span's
self time is what that call really cost in the real program.

Counts are read from the values the patched calls take and return, and from
the Linker's final state.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

from ctxflow import cli, emit, framework, macro, reduction
from ctxflow.linker import Linker
from ctxflow.model import ReductionEvent

# (owner, attribute, span): while a replay runs, owner.attribute runs under
# a span of that name. Where a function is imported by name into several
# modules, each module's global is patched.
PATCHES = (
    (macro, "parse_context", "macro.parse_context"),
    (macro, "parse_workflow", "macro.parse_workflow"),
    (Linker, "load_context", "context.load_context"),
    (Linker, "run_statements", "linker.run_statements"),
    (emit, "dependency_order", "framework.dependency_order"),
    (framework, "dependency_order", "framework.dependency_order"),
    (cli, "emit_dag", "emit.emit_dag"),
    (cli, "run_pregroup", "framework.run_pregroup"),
    (reduction, "check_acyclic", "reduction.check_acyclic"),
    (cli, "reduce_all", "reduction.reduce_all"),
    (framework, "reduce_all", "reduction.reduce_all"),
    (cli, "eval_checks", "reduction.eval_checks"),
    (cli, "run_framework", "framework.run_framework"),
    (cli, "emit_shell", "emit.emit_shell"),
    (cli, "emit_manifest", "emit.emit_manifest"),
    (cli, "emit_provenance", "emit.emit_provenance"),
    (Path, "write_text", "cli.write"),
)
# Spans whose summed duration is reported as the per-layer metric "<span>_s".
TIMED_SPANS = tuple(dict.fromkeys(span for _, _, span in PATCHES))
# Per-layer metric read from the calls' values or the final state -> its unit.
COUNT_METRICS = {
    "macro.statements": "count",
    "context.blocks": "count",
    "context.directive_applications": "count",
    "linker.elements": "count",
    "linker.flows": "count",
    "linker.shadows": "count",
    "sources.kv_pairs": "count",
    "reduction.reduce_events": "count",
    "framework.messages": "count",
    "framework.handled_ratio": "ratio",
    "emit.bytes": "bytes",
}
ROOT_SPAN = "cli.command"


class Tracer:
    """Spans kept in memory (name, start, end, parent), and the counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
        self.jobs = 0
        self.state: Linker | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def finished_spans(self) -> list[dict]:
        """Spans with duration and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [dict(s, duration=s["end"] - s["start"], self=s["end"] - s["start"] - child_time[s["id"]])
                for s in self.spans]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def observe(self, span: str, args: tuple, result) -> None:
        """Counts taken from one finished call."""
        if span == "macro.parse_context":
            for item in result.items:
                self.counts["macro.statements"] += 1
                if isinstance(item, macro.ContextBlockAst):
                    self.counts["context.blocks"] += 1
                    self.counts["macro.statements"] += len(item.body)
        elif span == "macro.parse_workflow":
            self.counts["macro.statements"] += len(result)
        elif span == "linker.run_statements":
            self.state = args[0]
            self.counts["linker.flows"] = self.state.flow_count()
        elif span in ("framework.run_pregroup", "framework.run_framework"):
            self.counts["framework.messages"] = len(result.messages)
            if result.messages:
                self.counts["framework.handled_ratio"] = sum(m.handled for m in result.messages) / len(result.messages)
        elif span == "cli.write":
            self.counts["emit.bytes"] += len(args[1].encode("utf-8"))


def _traced(t: Tracer, span: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with t.span(span):
            result = fn(*args, **kwargs)
        t.observe(span, args, result)
        return result
    return wrapper


@contextmanager
def patched(t: Tracer):
    """Apply PATCHES for the duration of the block, then restore them."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in PATCHES]
    try:
        for owner, attr, span in PATCHES:
            setattr(owner, attr, _traced(t, span, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def replay(argv: list[str]) -> Tracer:
    """Run one CLI command in-process under spans; paths resolve against
    the current directory, as they would for the CLI."""
    ns = cli._build_parser().parse_args(argv)
    t = Tracer()
    with patched(t), t.span(ROOT_SPAN):
        code = cli._COMMANDS[ns.command](ns)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"traced {ns.command} returned exit code {code}")
    t.jobs = getattr(ns, "jobs", 0)
    _count_state(t, t.state)
    return t


def _count_state(t: Tracer, state: Linker) -> None:
    t.counts["context.directive_applications"] = sum(len(el.applied_directives) for el in state.elements.values())
    t.counts["linker.elements"] = len(state.elements)
    t.counts["linker.shadows"] = sum(1 for e in state.provenance if e.kind == ReductionEvent.SHADOW)
    t.counts["reduction.reduce_events"] = sum(1 for e in state.provenance if e.kind == ReductionEvent.REDUCE)
    kv_origins = {source.origin() for source in state.kv_sources}
    t.counts["sources.kv_pairs"] = sum(
        1 for el in state.elements.values() for origin in el.attr_origins.values() if origin in kv_origins
    )


def metrics(t: Tracer) -> dict[str, float]:
    """The per-layer values of one replay."""
    out: dict[str, float] = {f"{span}_s": t.total(span) for span in TIMED_SPANS}
    out["framework.job_s"] = out["framework.run_framework_s"] / t.jobs if t.jobs else 0.0
    out.update(t.counts)
    return out
