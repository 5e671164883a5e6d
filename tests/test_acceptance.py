"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values marked as derived are computed here by independent oracles
(reference-token counts, DFS cycle detection, chain-walk orders) rather than
hard-coded from the implementation under test.
"""

from __future__ import annotations

import random
import time

import pytest

import ctxflow as cf
from ctxflow.model import ReductionEvent

import graphgen
from conftest import (
    ARGS,
    FIXTURES,
    GOLDEN,
    WORKFLOW,
    load_fixture_state,
    load_reduce_ready_state,
    states_equivalent,
)


def report(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE PASS criterion {criterion}: {label}")


def test_criterion_1_golden_expansion():
    started = time.perf_counter()
    state = cf.Linker()
    for name in ["Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx"]:
        state.load_context(cf.parse_context((FIXTURES / name).read_text(encoding="utf-8"), name))
    state.run_statements(cf.parse_workflow(WORKFLOW.read_text(encoding="utf-8")))
    emitted = cf.emit_macro(state)
    elapsed = time.perf_counter() - started
    golden = GOLDEN.read_text(encoding="utf-8")
    assert emitted == golden
    # statement multiset sanity on the checked-in golden
    statements = cf.parse_workflow(golden)
    assert len(statements) == 37
    assert elapsed < 1.0
    report(1, f"golden expansion byte-identical in {elapsed * 1000:.0f} ms")


def test_criterion_2_reduction_completeness():
    state = load_reduce_ready_state()
    # oracle: count reference tokens in the golden expanded workflow
    reference_count = GOLDEN.read_text(encoding="utf-8").count("::")
    assert reference_count == 9
    assert state.flow_count() == reference_count
    cf.run_pregroup(state, ARGS)
    cf.reduce_all(state, ARGS)
    assert state.flow_count() == 0
    assert state.elements["CMKIN"].attributes["ApplicationVersion"] == "6.133"
    assert state.elements["OSCAR"].attributes["ApplicationVersion"] == "OSCAR_3_6_5"
    assert state.elements["Digitization"].attributes["ApplicationVersion"] == "ORCA_8_4_1"
    reduce_events = [e for e in state.provenance if e.kind == ReductionEvent.REDUCE]
    assert len(reduce_events) == reference_count
    report(2, f"{reference_count} flows reduced to 0, application versions exact")


def test_criterion_3_single_arrow_property():
    started = time.perf_counter()
    rng = random.Random(20260301)
    graphs = 1000
    for _ in range(graphs):
        recipe = graphgen.build_recipe(rng, max_elements=50, max_flows=200)
        lazy = graphgen.build_state(recipe)
        eager = graphgen.build_state(recipe)
        order = graphgen.topo_slots(graphgen.parent_edges(lazy))
        for name, key in order:
            before = lazy.flow_count()
            cf.read_attribute(lazy, name, key)
            assert lazy.flow_count() == before - 1
        assert lazy.flow_count() == 0
        cf.reduce_all(eager)
        for name in lazy.elements:
            assert lazy.elements[name].attributes == eager.elements[name].attributes
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"{graphs} random graphs, one arrow per first read, lazy == eager ({elapsed:.1f} s)")


def test_criterion_4_cycle_rejection():
    rng = random.Random(20260302)
    cyclic = acyclic = 0
    for i in range(500):
        recipe = graphgen.build_recipe(rng, max_elements=20, max_flows=60)
        if i % 2 == 0:
            recipe = graphgen.inject_cycle(rng, recipe)
        state = graphgen.build_state(recipe)
        expects_cycle = graphgen.dfs_has_cycle(graphgen.parent_edges(state))
        if expects_cycle:
            cyclic += 1
            with pytest.raises(cf.CycleError):
                cf.check_acyclic(state)
            reader = graphgen.build_state(recipe)
            raised = False
            slots = list(graphgen.parent_edges(reader))
            rng.shuffle(slots)
            for name, key in slots:
                try:
                    cf.read_attribute(reader, name, key)
                except cf.CycleError:
                    raised = True
                    break
            assert raised
        else:
            acyclic += 1
            cf.check_acyclic(state)
            reader = graphgen.build_state(recipe)
            for name, key in graphgen.topo_slots(graphgen.parent_edges(reader)):
                cf.read_attribute(reader, name, key)
    assert cyclic >= 200 and acyclic >= 200
    report(4, f"{cyclic} cyclic graphs rejected, {acyclic} acyclic graphs accepted (DFS oracle)")


def test_criterion_5_last_wins_collision():
    doc_a = ("contextBlock Application=CMKIN\n define TopMass 170\nend\n", "a.ctx")
    doc_b = ("contextBlock Application=CMKIN\n define TopMass 178\nend\n", "b.ctx")
    winners = {"a.ctx": "170", "b.ctx": "178"}
    for ordering in ([doc_a, doc_b], [doc_b, doc_a]):
        state = cf.Linker()
        for text, doc_id in ordering:
            state.load_context(cf.parse_context(text, doc_id))
        state.attach_element("CMKIN")
        last_doc = ordering[-1][1]
        assert state.elements["CMKIN"].attributes["TopMass"] == winners[last_doc]
        report_records = state.detect_collisions()
        assert len(report_records) == 1
        assert report_records[0].new_doc == last_doc
    report(5, "later document wins in both load orders, exactly one collision record")


def test_criterion_6_disjoint_context_order_independence():
    rng = random.Random(20260303)
    pairs = 200
    for _ in range(pairs):
        app_names = [f"App{i}" for i in range(rng.randint(1, 4))]
        docs = []
        for d in range(2):
            lines = [f"attach Term{d}"]
            for name in app_names:
                if rng.random() < 0.3:
                    continue
                lines.append(f"contextBlock Application={name}")
                for k in range(rng.randint(1, 3)):
                    if rng.random() < 0.3:
                        lines.append(f" define d{d}k{k} ::Term{d}:source{k}")
                    else:
                        lines.append(f" define d{d}k{k} value{d}{k}")
                if rng.random() < 0.3:
                    lines.append(f" add dependency Database=Term{d}")
                lines.append("end")
            docs.append(("\n".join(lines) + "\n", f"doc{d}.ctx"))
        forward, backward = cf.Linker(), cf.Linker()
        for text, doc_id in docs:
            forward.load_context(cf.parse_context(text, doc_id))
        for text, doc_id in reversed(docs):
            backward.load_context(cf.parse_context(text, doc_id))
        for state in (forward, backward):
            for name in app_names:
                state.attach_element(name)
        assert states_equivalent(forward, backward)
        assert forward.detect_collisions() == []
        assert backward.detect_collisions() == []
    report(6, f"{pairs} disjoint context pairs commute element-wise")


def test_criterion_7_framework_dispatch():
    state = cf.Linker()
    for name in ["E1", "E2", "E3"]:
        state.attach_element(name)
    state.framework_groups["onGroup"] = ["t1", "t2", "t3"]
    trace = cf.run_framework(state, n_jobs=1)
    assert len(trace.messages) == 9
    assert [(m.task, m.element) for m in trace.messages] == [
        (t, e) for t in ["t1", "t2", "t3"] for e in ["E1", "E2", "E3"]
    ]

    fixture = load_reduce_ready_state()
    run_trace = cf.run_framework(fixture, n_jobs=3, args=ARGS)
    assert len(run_trace.manifest) == 3
    scripts = cf.emit_shell(fixture, run_trace)
    assert len(scripts) == 12
    report(7, "task-major 9-message trace; 3 job records and 12 scripts at 3 jobs")


def test_criterion_8_emitter_determinism():
    macro_texts, dag_texts, shell_texts, prov_texts, manifest_texts = set(), set(), set(), set(), set()
    for _ in range(5):
        plain = load_fixture_state()
        macro_texts.add(cf.emit_macro(plain))
        dag_texts.add(cf.emit_dag(plain))
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=3, args=ARGS)
        shell_texts.add("".join(name + body for name, body in cf.emit_shell(state, trace)))
        prov_texts.add("".join(cf.emit_provenance(state)))
        manifest_texts.add("".join(cf.emit_manifest(trace)))
    for texts in (macro_texts, dag_texts, shell_texts, prov_texts, manifest_texts):
        assert len(texts) == 1
    report(8, "macro, dag, shell, provenance and manifest byte-stable across 5 runs")


def test_scale_smoke():
    rng = random.Random(20260304)
    state = cf.Linker()
    n_elements, n_flows = 10_000, 50_000
    for i in range(n_elements):
        state.attach_element(f"n{i}")
        state.set_attribute(f"n{i}", "base", f"v{i}")
    flow_slots: dict[int, list[str]] = {i: [] for i in range(n_elements)}
    for j in range(n_flows):
        target = rng.randrange(1, n_elements)
        source = rng.randrange(0, target)
        if flow_slots[source] and rng.random() < 0.3:
            source_attr = rng.choice(flow_slots[source])
        else:
            source_attr = "base"
        state.set_attribute(f"n{target}", f"a{j}", cf.FlowRef(f"n{source}", source_attr))
        flow_slots[target].append(f"a{j}")
    assert state.flow_count() == n_flows
    started = time.perf_counter()
    cf.reduce_all(state)
    elapsed = time.perf_counter() - started
    assert state.flow_count() == 0
    assert elapsed < 10.0
    report(0, f"scale smoke: {n_elements} elements / {n_flows} flows reduced in {elapsed:.1f} s")
