"""Lazy reduction: reads, cycles, eager completion, checks, provenance."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxflow as cf
from ctxflow.model import ReductionEvent

import graphgen
from conftest import ARGS, load_reduce_ready_state, scan_flow_count


def two_step_state() -> cf.Linker:
    state = cf.Linker()
    state.attach_element("OSCAR")
    state.attach_element("Digitization")
    state.set_attribute("OSCAR", "outputDataset", "dst_001")
    state.set_attribute("Digitization", "inputDataset", cf.FlowRef("OSCAR", "outputDataset"))
    return state


class TestReadAttribute:
    def test_assignment_copies_source_value(self):
        state = two_step_state()
        before = state.flow_count()
        assert cf.read_attribute(state, "Digitization", "inputDataset") == "dst_001"
        assert state.flow_count() == before - 1

    def test_read_is_memoized(self):
        state = two_step_state()
        cf.read_attribute(state, "Digitization", "inputDataset")
        events = len(state.provenance)
        assert cf.read_attribute(state, "Digitization", "inputDataset") == "dst_001"
        assert len(state.provenance) == events

    def test_two_cycle_is_rejected_with_path(self):
        state = cf.Linker()
        state.attach_element("A")
        state.attach_element("B")
        state.set_attribute("A", "x", cf.FlowRef("B", "y"))
        state.set_attribute("B", "y", cf.FlowRef("A", "x"))
        with pytest.raises(cf.CycleError) as err:
            cf.read_attribute(state, "A", "x")
        assert err.value.path == ["A.x", "B.y", "A.x"]

    def test_args_flow_reads_binding(self):
        state = cf.Linker()
        state.attach_element("LCG_ResourceBroker")
        state.set_attribute("LCG_ResourceBroker", "UserJDLFile", cf.FlowRef("@args", "UserJDLFile"))
        value = cf.read_attribute(state, "LCG_ResourceBroker", "UserJDLFile", {"UserJDLFile": "job.jdl"})
        assert value == "job.jdl"

    def test_missing_arg(self):
        state = cf.Linker()
        state.attach_element("X")
        state.set_attribute("X", "f", cf.FlowRef("@args", "nope"))
        with pytest.raises(cf.MissingArgError):
            cf.read_attribute(state, "X", "f", {})

    def test_missing_attribute(self):
        state = cf.Linker()
        state.attach_element("X")
        with pytest.raises(cf.MissingAttributeError):
            cf.read_attribute(state, "X", "absent")

    def test_missing_source_attribute(self):
        state = cf.Linker()
        state.attach_element("RefDB", is_terminal=True)
        state.attach_element("X")
        state.set_attribute("X", "rate", cf.FlowRef("RefDB", "Lumi_1032"))
        with pytest.raises(cf.MissingAttributeError):
            cf.read_attribute(state, "X", "rate")

    def test_source_resolved_through_dependency_description_key(self):
        # a flow may name a description key; it resolves through the unique
        # dependency whose description carries that key
        state = cf.Linker()
        state.attach_element("RefDB", is_terminal=True)
        state.attach_element("X")
        state.add_dependency("X", cf.HeaderPattern({"Database": ["RefDB"]}))
        state.set_attribute("RefDB", "Lumi", "25ns")
        state.set_attribute("X", "rate", cf.FlowRef("Database", "Lumi"))
        assert cf.read_attribute(state, "X", "rate") == "25ns"

    def test_ambiguous_dependency_source_is_rejected(self):
        state = cf.Linker()
        state.attach_element("RefDB", is_terminal=True)
        state.attach_element("GroupDB", is_terminal=True)
        state.attach_element("X")
        state.add_dependency("X", "RefDB")
        state.add_dependency("X", "GroupDB")
        state.set_attribute("RefDB", "k", "a")
        state.set_attribute("X", "v", cf.FlowRef("Database", "k"))
        with pytest.raises(cf.UnresolvedSourceError, match="ambiguous"):
            cf.read_attribute(state, "X", "v")

    def test_deep_chain_does_not_recurse(self):
        state = cf.Linker()
        n = 5000
        for i in range(n):
            state.attach_element(f"e{i}")
        state.set_attribute("e0", "v", "root")
        for i in range(1, n):
            state.set_attribute(f"e{i}", "v", cf.FlowRef(f"e{i - 1}", "v"))
        assert cf.read_attribute(state, f"e{n - 1}", "v") == "root"
        assert state.flow_count() == 0


class TestReduceAll:
    def test_fixture_reduces_to_zero(self):
        state = load_reduce_ready_state()
        initial = state.flow_count()
        assert initial == scan_flow_count(state)
        cf.run_pregroup(state, ARGS)
        cf.reduce_all(state, ARGS)
        assert state.flow_count() == 0
        reduces = [e for e in state.provenance if e.kind == ReductionEvent.REDUCE]
        assert len(reduces) == initial

    def test_noop_on_reduced_state(self):
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        cf.reduce_all(state, ARGS)
        events = len(state.provenance)
        cf.reduce_all(state, ARGS)
        assert len(state.provenance) == events

    def test_unresolvable_source_names_the_flow(self):
        state = cf.Linker()
        state.attach_element("X")
        state.set_attribute("X", "a", cf.FlowRef("nowhere", "b"))
        with pytest.raises(cf.UnresolvedSourceError) as err:
            cf.reduce_all(state)
        assert "nowhere" in str(err.value)

    def test_only_target_attribute_changes(self):
        state = two_step_state()
        state.set_attribute("OSCAR", "untouched", "keep")
        cf.read_attribute(state, "Digitization", "inputDataset")
        assert state.elements["OSCAR"].attributes["untouched"] == "keep"
        assert state.elements["OSCAR"].attributes["outputDataset"] == "dst_001"


class TestCheckAcyclic:
    def test_bare_workflow_reduction_order(self):
        state = cf.Linker()
        for name in ["CMKIN", "OSCAR", "Digitization"]:
            state.attach_element(name)
        state.set_attribute("OSCAR", "inputFile", cf.FlowRef("CMKIN", "outputFile"))
        state.set_attribute("Digitization", "inputDataset", cf.FlowRef("OSCAR", "outputDataset"))
        state.set_attribute("Digitization", "inputRunNumber", cf.FlowRef("OSCAR", "outputRunNumber"))
        order = cf.check_acyclic(state)
        assert order.index(("OSCAR", "inputFile")) < order.index(("Digitization", "inputDataset"))
        assert order == [
            ("OSCAR", "inputFile"),
            ("Digitization", "inputDataset"),
            ("Digitization", "inputRunNumber"),
        ]

    def test_empty_flows(self):
        state = cf.Linker()
        state.attach_element("X")
        assert cf.check_acyclic(state) == []

    def test_two_cycle(self):
        state = cf.Linker()
        state.attach_element("A")
        state.attach_element("B")
        state.set_attribute("A", "x", cf.FlowRef("B", "y"))
        state.set_attribute("B", "y", cf.FlowRef("A", "x"))
        with pytest.raises(cf.CycleError):
            cf.check_acyclic(state)

    def test_cycle_path_starts_at_first_slot_by_key(self):
        state = cf.Linker()
        state.run_statements(cf.parse_workflow(
            "attach A\nattach B\nA define y ::B:y\nA define x ::B:x\nB define y ::A:y\nB define x ::A:x\n"
        ))
        with pytest.raises(cf.CycleError) as err:
            cf.check_acyclic(state)
        assert err.value.path == ["A.x", "B.x", "A.x"]

    def test_chain_orders_sources_first(self):
        state = cf.Linker()
        for name in ["A", "B", "C"]:
            state.attach_element(name)
        state.set_attribute("A", "v", "base")
        state.set_attribute("B", "v", cf.FlowRef("A", "v"))
        state.set_attribute("C", "v", cf.FlowRef("B", "v"))
        assert cf.check_acyclic(state) == [("B", "v"), ("C", "v")]


class TestEvalChecks:
    def test_literal_check_passes(self):
        state = load_reduce_ready_state()
        state.add_check("CMKIN", "ApplicationVersion", "6.133")
        cf.run_pregroup(state, ARGS)
        cf.eval_checks(state, ARGS)

    def test_literal_check_fails(self):
        state = load_reduce_ready_state()
        state.add_check("CMKIN", "ApplicationVersion", "7.0")
        cf.run_pregroup(state, ARGS)
        with pytest.raises(cf.CheckFailedError) as err:
            cf.eval_checks(state, ARGS)
        assert err.value.target == "CMKIN.ApplicationVersion"

    def test_check_statement_round_trip(self):
        state = cf.Linker()
        state.run_statements(cf.parse_workflow("attach X\nX define v 1\nX check v 1\n"))
        assert state.checks == [cf.Check("X", "v", "1")]
        assert "X check v 1\n" in cf.emit_macro(state)
        cf.eval_checks(state)

    def test_check_against_args_reference(self):
        state = cf.Linker()
        state.attach_element("X")
        state.set_attribute("X", "jdl", "job.jdl")
        state.add_check("X", "jdl", cf.FlowRef("@args", "UserJDLFile"))
        cf.eval_checks(state, {"UserJDLFile": "job.jdl"})
        with pytest.raises(cf.CheckFailedError):
            cf.eval_checks(state, {"UserJDLFile": "other.jdl"})

    def test_reference_check_reads_both_sides(self, tmp_path):
        kv = tmp_path / "group.kv"
        kv.write_text("ECalOn=On\n", encoding="utf-8")
        state = cf.Linker()
        state.attach_element("PhysicsGroupDB", is_terminal=True)
        state.attach_element("OSCAR")
        state.set_attribute("OSCAR", "ECal", "On")
        state.add_kv_source(cf.KvSource(cf.Description({"Database": "PhysicsGroupDB"}), kv))
        state.register_handler("PhysicsGroupDB", "contactDB", "connectToDatabase")
        state.framework_groups["preGroup"] = ["contactDB"]
        cf.run_pregroup(state)
        state.add_check("OSCAR", "ECal", cf.FlowRef("PhysicsGroupDB", "ECalOn"))
        cf.eval_checks(state)


class TestProvenance:
    def test_reduce_event_names_source_and_document(self):
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        cf.reduce_all(state, ARGS)
        events = {(e.element, e.attribute): e for e in state.provenance if e.kind == ReductionEvent.REDUCE}
        higgs = events[("CMKIN", "HiggsMass")]
        assert higgs.source == "PhysicsGroupDB"
        assert higgs.doc == "PhysicsGroup.ctx"
        assert higgs.value == "125.0"

    def test_no_events_before_reduction_on_fixture(self, fixture_state):
        assert fixture_state.provenance == []

    def test_log_order_holds_on_both_run_paths(self):
        """The log position is the order: a SHADOW event comes before the
        reductions that follow it, and a 3-job run on the replay path and,
        with submit wrapped, on the general path log equal events."""
        state = load_reduce_ready_state()
        state.set_attribute("OSCAR", "outputDataset", "dst_002")
        cf.run_pregroup(state, ARGS)
        cf.reduce_all(state, ARGS)
        kinds = [e.kind for e in state.provenance]
        assert kinds[0] == ReductionEvent.SHADOW and len(kinds) > 1
        assert set(kinds[1:]) == {ReductionEvent.REDUCE}
        logs = []
        for wrap in (False, True):
            state = load_reduce_ready_state()
            state.set_attribute("OSCAR", "outputDataset", "dst_002")
            if wrap:
                state.handler_library["submit"] = lambda ctx: cf.framework.submit(ctx)
            cf.run_framework(state, n_jobs=3, args=ARGS)
            assert state.provenance[0].kind == ReductionEvent.SHADOW
            logs.append(state.provenance)
        assert logs[0] == logs[1]


class TestRandomGraphs:
    def test_single_arrow_removal_and_lazy_eager_agreement(self):
        rng = random.Random(1234)
        for _ in range(60):
            recipe = graphgen.build_recipe(rng, max_elements=20, max_flows=60)
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

    def test_random_read_order_matches_eager(self):
        rng = random.Random(99)
        for _ in range(40):
            recipe = graphgen.build_recipe(rng, max_elements=15, max_flows=40)
            lazy = graphgen.build_state(recipe)
            eager = graphgen.build_state(recipe)
            slots = list(graphgen.parent_edges(lazy))
            rng.shuffle(slots)
            for name, key in slots:
                cf.read_attribute(lazy, name, key)
            cf.reduce_all(eager)
            assert lazy.flow_count() == 0
            for name in lazy.elements:
                assert lazy.elements[name].attributes == eager.elements[name].attributes

    def test_monotone_flow_count_and_one_event_per_flow(self):
        rng = random.Random(7)
        recipe = graphgen.build_recipe(rng, max_elements=30, max_flows=100)
        state = graphgen.build_state(recipe)
        initial = state.flow_count()
        slots = list(graphgen.parent_edges(state))
        rng.shuffle(slots)
        last = initial
        for name, key in slots:
            cf.read_attribute(state, name, key)
            assert state.flow_count() <= last
            last = state.flow_count()
        reduces = [e for e in state.provenance if e.kind == ReductionEvent.REDUCE]
        assert len(reduces) == initial

    def test_cycle_detection_agrees_with_dfs_oracle(self):
        rng = random.Random(4321)
        for i in range(40):
            recipe = graphgen.build_recipe(rng, max_elements=12, max_flows=30)
            if i % 2:
                recipe = graphgen.inject_cycle(rng, recipe)
            state = graphgen.build_state(recipe)
            edges = graphgen.parent_edges(state)
            expected = graphgen.dfs_has_cycle(edges)
            if expected:
                with pytest.raises(cf.CycleError) as err:
                    cf.check_acyclic(state)
                # Each hop reads from the next: its source slot.
                hops = [tuple(hop.split(".", 1)) for hop in err.value.path]
                graphgen.assert_cycle(hops, lambda a, b: edges[a] == b)
            else:
                assert cf.check_acyclic(state) == graphgen.scan_slot_order(state)


def _raised(call):
    try:
        call()
    except cf.CtxflowError as exc:
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.lists(st.sampled_from(["self", "unknown"]), max_size=3))
def test_check_acyclic_raises_exactly_when_reduce_all_does(seed, cyclic, bad_flows):
    """check_acyclic raises when some flow cannot be read, and with the
    class reduce_all raises: a cycle (a slot that reads itself included)
    before a source that does not resolve."""
    rng = random.Random(seed)
    recipe = graphgen.build_recipe(rng, max_elements=10, max_flows=25)
    if cyclic:
        recipe = graphgen.inject_cycle(rng, recipe)
    for kind in bad_flows:
        recipe = graphgen.inject_bad_flow(rng, recipe, kind)
    state = graphgen.build_state(recipe)
    checked = _raised(lambda: cf.check_acyclic(state))
    assert checked == _raised(lambda: cf.reduce_all(graphgen.build_state(recipe)))
    # A failed read stores nothing, so which reads fail does not depend on
    # their order.
    reader = graphgen.build_state(recipe)
    slots = graphgen.parent_edges(reader)
    failures = {_raised(lambda: cf.read_attribute(reader, name, key)) for name, key in slots}
    expected = next((cls for cls in (cf.CycleError, cf.UnresolvedSourceError) if cls in failures), None)
    assert checked == expected, failures
    assert (checked is cf.CycleError) == graphgen.dfs_has_cycle(graphgen.parent_edges(state))
