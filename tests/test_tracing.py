"""The benchmark's traced replay still sees every layer.

`perfbench/tracing.py` times a layer by patching the name the CLI calls it
through. A stage that stopped calling through that name would read 0 in the
benchmark's per-layer metrics without failing anything, so each command's
spans and non-zero counts are pinned here on the fixture corpus.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from test_cli import CONTEXT_FLAGS, REDUCE_FLAGS, WORKFLOW

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
LOAD_SPANS = {
    "cli.command", "cli.write", "context.load_context", "framework.dependency_order",
    "linker.run_statements", "macro.parse_context", "macro.parse_workflow",
}
REDUCE_COUNTS = {
    "macro.statements": 43, "context.blocks": 8, "context.directive_applications": 25,
    "linker.elements": 6, "linker.flows": 9, "sources.kv_pairs": 4,
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command, argv, spans, counts", [
    (
        "apply",
        ["--emit", "dag", "-o", "dag.txt"],
        {"emit.emit_dag"},
        {"macro.statements": 38, "context.blocks": 6, "context.directive_applications": 22,
         "linker.elements": 6, "linker.flows": 9, "emit.bytes": 177},
    ),
    (
        "reduce",
        ["--emit", "provenance", "-o", "provenance.log"],
        {"emit.emit_provenance", "framework.run_pregroup", "reduction.check_acyclic",
         "reduction.eval_checks", "reduction.reduce_all"},
        {**REDUCE_COUNTS, "reduction.reduce_events": 9, "framework.messages": 6,
         "framework.handled_ratio": 2 / 6, "emit.bytes": 754},
    ),
    (
        "run",
        ["--jobs", "2", "--out-dir", "out"],
        {"emit.emit_manifest", "emit.emit_provenance", "emit.emit_shell", "framework.run_framework",
         "reduction.check_acyclic", "reduction.eval_checks", "reduction.reduce_all"},
        {**REDUCE_COUNTS, "reduction.reduce_events": 18, "framework.messages": 42,
         "framework.handled_ratio": 4 / 42, "emit.bytes": 3126},
    ),
], ids=["apply", "reduce", "run"])
def test_replay_sees_every_layer(tmp_path, monkeypatch, command, argv, spans, counts):
    monkeypatch.chdir(tmp_path)
    flags = CONTEXT_FLAGS if command == "apply" else REDUCE_FLAGS
    tracer = _tracing().replay([command, *flags, WORKFLOW, *argv])
    assert {span["name"] for span in tracer.spans} == LOAD_SPANS | spans
    seen = {name: value for name, value in tracer.counts.items() if value}
    if command == "run":
        # run streams its two logs to disk, past the Path.write_text that the tracer counts.
        seen["emit.bytes"] += sum((tmp_path / "out" / log).stat().st_size for log in ("manifest.log", "provenance.log"))
    assert seen == counts
