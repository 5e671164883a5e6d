"""Core state operations: attach, define, dependencies, flow accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxflow as cf
from ctxflow import macro
from ctxflow.framework import DispatchTrace, JobRecord
from ctxflow.model import FlowRef, Record, ReductionEvent, WorkflowElement, _require_token, toposort

import graphgen
from conftest import ARGS, WORKFLOW, load_fixture_state, load_reduce_ready_state, scan_flow_count

WORKFLOW_TEXT = WORKFLOW.read_text(encoding="utf-8")


class TestAttach:
    def test_new_state_is_empty(self):
        state = cf.Linker()
        assert state.flow_count() == 0
        assert len(state.elements) == 0

    def test_attach_without_contexts(self):
        state = cf.Linker()
        el = state.attach_element("CMKIN")
        assert el.attributes == {}
        assert state.flow_count() == 0
        assert el.description.entries == {"Application": "CMKIN"}

    def test_attach_applies_loaded_context(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        el = state.attach_element("CMKIN")
        assert el.attributes["ApplicationVersion"] == "6.133"
        assert el.attributes["HiggsMass"] == cf.FlowRef("PhysicsGroupDB", "HMass2004")
        assert el.attributes["TopMass"] == cf.FlowRef("PhysicsGroupDB", "TMass2004")

    def test_duplicate_attach(self):
        state = cf.Linker()
        state.attach_element("CMKIN")
        with pytest.raises(cf.DuplicateElementError):
            state.attach_element("CMKIN")

    def test_terminal_default_description(self):
        state = cf.Linker()
        el = state.attach_element("RefDB", is_terminal=True)
        assert el.description.entries == {"Database": "RefDB"}
        assert el.is_terminal

    def test_insertion_order_is_stable(self):
        state = cf.Linker()
        for name in ["C", "A", "B"]:
            state.attach_element(name)
        assert list(state.elements) == ["C", "A", "B"]
        assert list(state.elements) == ["C", "A", "B"]


class TestSetAttribute:
    def test_flow_define_increments_count(self):
        state = cf.Linker()
        state.attach_element("CMKIN")
        state.attach_element("OSCAR")
        state.set_attribute("OSCAR", "inputFile", cf.FlowRef("CMKIN", "outputFile"))
        assert state.flow_count() == 1
        assert scan_flow_count(state) == 1

    def test_literal_overwrite_keeps_count(self):
        state = cf.Linker()
        state.attach_element("CMKIN")
        state.set_attribute("CMKIN", "ApplicationVersion", "6.133")
        state.set_attribute("CMKIN", "ApplicationVersion", "6.134")
        assert state.elements["CMKIN"].attributes["ApplicationVersion"] == "6.134"
        assert state.flow_count() == 0

    def test_flow_replacement_is_net_zero(self):
        state = cf.Linker()
        for name in ["X", "B", "C"]:
            state.attach_element(name)
        state.set_attribute("X", "a", cf.FlowRef("B", "b"))
        state.set_attribute("X", "a", cf.FlowRef("C", "c"))
        assert state.flow_count() == 1
        assert scan_flow_count(state) == 1
        assert state.elements["X"].attributes["a"].source == "C"

    def test_replacement_recorded_as_shadowing(self):
        state = cf.Linker()
        for name in ["X", "B", "C"]:
            state.attach_element(name)
        state.set_attribute("X", "a", cf.FlowRef("B", "b"))
        state.set_attribute("X", "a", cf.FlowRef("C", "c"))
        shadows = [e for e in state.provenance if e.kind == cf.ReductionEvent.SHADOW]
        assert len(shadows) == 1 and shadows[0].element == "X" and shadows[0].attribute == "a"

    def test_unknown_element(self):
        state = cf.Linker()
        with pytest.raises(cf.UnknownElementError):
            state.set_attribute("ghost", "k", "v")


class TestAddDependency:
    def test_by_name(self):
        state = cf.Linker()
        state.attach_element("CMKIN")
        state.attach_element("OSCAR")
        state.add_dependency("OSCAR", "CMKIN")
        assert state.elements["OSCAR"].dependencies == ["CMKIN"]

    def test_duplicate_is_ignored(self):
        state = cf.Linker()
        state.attach_element("CMKIN")
        state.attach_element("OSCAR")
        state.add_dependency("OSCAR", "CMKIN")
        state.add_dependency("OSCAR", "CMKIN")
        assert state.elements["OSCAR"].dependencies == ["CMKIN"]

    def test_pattern_resolves_to_terminal(self):
        state = cf.Linker()
        state.attach_element("RefDB", is_terminal=True)
        state.attach_element("CMKIN")
        state.add_dependency("CMKIN", cf.HeaderPattern({"Database": ["RefDB"]}))
        order = [el.name for el in cf.dependency_order(state)]
        assert order.index("RefDB") < order.index("CMKIN")

    def test_unknown_name_target(self):
        state = cf.Linker()
        state.attach_element("OSCAR")
        with pytest.raises(cf.UnknownElementError):
            state.add_dependency("OSCAR", "CMKIN")


class TestFlowCount:
    def test_empty_state(self):
        assert cf.Linker().flow_count() == 0

    def test_bare_workflow_flow_count_matches_reference_scan(self):
        # Independent oracle: count `::` references in the source text.
        expected = WORKFLOW_TEXT.count("::")
        assert expected == 3
        state = cf.Linker()
        state.run_statements(cf.parse_workflow(WORKFLOW_TEXT))
        assert state.flow_count() == expected
        assert scan_flow_count(state) == expected

    def test_cached_count_always_matches_scan_on_fixture(self):
        state = load_fixture_state()
        assert state.flow_count() == scan_flow_count(state)


class TestMetadataSubgraph:
    def test_bare_workflow_edges(self):
        state = cf.Linker()
        state.run_statements(cf.parse_workflow(WORKFLOW_TEXT))
        edges = state.metadata_subgraph()
        assert sorted(edges) == [
            ("CMKIN", "OSCAR"),
            ("OSCAR", "Digitization"),
            ("OSCAR", "Digitization"),
        ]

    def test_no_flows_no_edges(self):
        state = cf.Linker()
        state.attach_element("X")
        assert state.metadata_subgraph() == []

    def test_args_flow_maps_to_synthetic_node(self):
        state = cf.Linker()
        state.attach_element("X")
        state.set_attribute("X", "jdl", cf.FlowRef("@args", "UserJDLFile"))
        assert state.metadata_subgraph() == [("@args", "X")]

    def test_unresolved_source(self):
        state = cf.Linker()
        state.attach_element("X")
        state.set_attribute("X", "a", cf.FlowRef("nowhere", "b"))
        with pytest.raises(cf.UnresolvedSourceError):
            state.metadata_subgraph()

    def test_edge_count_equals_flow_count(self, fixture_state):
        assert len(fixture_state.metadata_subgraph()) == fixture_state.flow_count()

    @staticmethod
    def edges_agreeing_with_reductions(state, args=None):
        # The flow graph and the REDUCE log each name one source per flow;
        # both must get it from the same lookup.
        edges = state.metadata_subgraph()
        start = len(state.provenance)
        cf.reduce_all(state, args)
        reduced = [(e.source, e.element) for e in state.provenance[start:] if e.kind == ReductionEvent.REDUCE]
        assert sorted(edges) == sorted(reduced)
        return edges

    def test_fixture_edges_agree_with_reductions(self):
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        edges = self.edges_agreeing_with_reductions(state, ARGS)
        assert ("@args", "LCG_ResourceBroker") in edges and ("CMKIN", "OSCAR") in edges

    def test_dependency_key_edge_agrees_with_reductions(self):
        state = cf.Linker()
        state.attach_element("DB", is_terminal=True)
        state.set_attribute("DB", "k", "v")
        state.run_statements(cf.parse_workflow("attach A\nA add dependency Database=*\nA define x ::Database:k\n"))
        assert self.edges_agreeing_with_reductions(state) == [("DB", "A")]

    def test_generated_edges_agree_with_reductions(self):
        rng = random.Random(20261019)
        for _ in range(50):
            self.edges_agreeing_with_reductions(graphgen.build_state(graphgen.build_recipe(rng)))


class TestToposort:
    def test_ties_keep_node_order_and_outside_sources_are_ignored(self):
        order, cycle = toposort(["Z", "M", "A", "B"], [["A"], [], ["elsewhere"], ["M", "A"]])
        assert (order, cycle) == (["M", "A", "Z", "B"], None)

    def test_cycle_walk_starts_at_first_unordered_node(self):
        # Z only waits on the cycle: the walk Z, C, B, C reports C -> B -> C.
        nodes = ["X", "Z", "B", "C"]
        assert toposort(nodes, [[], ["C", "X"], ["C"], ["X", "B"]]) == (None, ["C", "B", "C"])

    def test_self_source_is_a_cycle(self):
        assert toposort(["A", "B"], [[], ["B"]]) == (None, ["B", "B"])


STATEMENTS = {
    macro.Attach: ("name", "is_terminal"),
    macro.AddDep: ("element", "target"),
    macro.Define: ("element", "key", "value"),
    macro.FrameworkDefine: ("group", "tasks"),
    macro.FrameworkRun: (),
    macro.NamespaceAdd: ("alias", "pattern", "element"),
    macro.Oncall: ("element", "task", "handler"),
    macro.AddDependencyPattern: ("element", "pattern"),
    macro.Check: ("element", "key", "value"),
}


def _element(**fields) -> WorkflowElement:
    return WorkflowElement("A", cf.Description({"Application": "A"}), **fields)


class TestRecord:
    """The slotted base of the package's value classes."""

    def test_equality_requires_the_same_type(self):
        assert macro.Define("A", "k", "v") == macro.Define("A", "k", "v")
        assert macro.Define("A", "k", "v") != macro.Define("A", "k", "w")
        assert macro.Define("A", "k", "v") != macro.Check("A", "k", "v")
        assert macro.Check("A", "k", "v") != macro.Define("A", "k", "v")
        assert macro.Define("A", "k", "v") != ("A", "k", "v")
        assert macro.FrameworkRun() == macro.FrameworkRun()
        assert macro.FrameworkRun() != macro.Attach("A")

    def test_element_equality_ignores_applied_directives(self):
        plain = _element(attributes={"k": "v"})
        shaped = _element(attributes={"k": "v"}, applied_directives={(0, 1)})
        assert plain == shaped
        assert plain != _element(attributes={"k": "w"})
        assert plain != _element(attributes={"k": "v"}, is_terminal=True)

    def test_flow_ref_is_immutable_and_hashable(self):
        ref = FlowRef("A", "x")
        with pytest.raises(AttributeError):
            ref.source = "B"
        with pytest.raises(AttributeError):
            del ref.attr
        assert (ref.source, ref.attr) == ("A", "x")
        assert hash(ref) == hash(FlowRef("A", "x"))
        assert {ref: 1}[FlowRef("A", "x")] == 1
        assert len({ref, FlowRef("A", "x"), FlowRef("A", "y")}) == 2

    def test_mutable_records_are_unhashable(self):
        for record in (macro.Define("A", "k", "v"), _element(), cf.Description({"a": "b"})):
            with pytest.raises(TypeError):
                hash(record)

    def test_no_two_instances_share_a_default_container(self):
        for make in (_element, DispatchTrace, cf.Description):
            first, second = make(), make()
            for name in type(first).__slots__:
                value = getattr(first, name)
                if isinstance(value, (dict, list, set)):
                    assert value == type(value)()
                    assert value is not getattr(second, name), (make, name)

    def test_defaults_fill_only_omitted_fields(self):
        assert JobRecord(0, "A", {}).submitted is False
        assert macro.NamespaceAdd("N", "p").element is None
        event = ReductionEvent(ReductionEvent.SHADOW, "A", "k", new_doc="d")
        assert (event.source, event.value, event.old_doc, event.new_doc) == (None, None, None, "d")
        attributes = {"k": "v"}
        assert _element(attributes=attributes).attributes is attributes

    def test_statement_match_args_are_in_field_order(self):
        for cls, fields in STATEMENTS.items():
            assert cls.__match_args__ == fields
            args = tuple(f"{name}-value" for name in fields)
            record = cls(*args)
            assert tuple(getattr(record, name) for name in cls.__match_args__) == args
            assert record == cls(**dict(zip(fields, args)))
        match macro.Define(None, "k", FlowRef("B", "y")):
            case macro.Check():
                raise AssertionError("a Define matched a Check pattern")
            case macro.Define(element, key, FlowRef(source, attr)):
                assert (element, key, source, attr) == (None, "k", "B", "y")

    def test_wrong_constructor_arguments_raise_type_error(self):
        for call in (
            lambda: macro.Define("A", "k"),
            lambda: macro.Define("A", "k", "v", "extra"),
            lambda: macro.Define("A", "k", "v", nope=1),
            lambda: macro.Define("A", "k", "v", key="again"),
            lambda: macro.FrameworkRun("extra"),
            lambda: FlowRef("A"),
            lambda: WorkflowElement("A"),
            lambda: ReductionEvent("REDUCE", "A"),
        ):
            with pytest.raises(TypeError):
                call()

    def test_repr_names_the_class_and_each_shown_field(self):
        define = macro.Define(None, "k", FlowRef("A", "x"))
        assert repr(define) == "Define(element=None, key='k', value=FlowRef(source='A', attr='x'))"
        assert repr(macro.FrameworkRun()) == "FrameworkRun()"
        element = _element(applied_directives={(0, 1)})
        assert repr(element) == (
            "WorkflowElement(name='A', description=Description(entries={'Application': 'A'}), is_terminal=False, "
            "attributes={}, attr_origins={}, dependencies=[], handlers={})"
        )

    def test_post_init_still_validates(self):
        with pytest.raises(ValueError, match="description key"):
            cf.Description({"a b": "c"})
        with pytest.raises(ValueError, match="at least one key"):
            cf.HeaderPattern({})
        with pytest.raises(ValueError, match="pattern value"):
            cf.HeaderPattern({"a": [""]})

    def test_every_record_is_slotted(self):
        records = [macro.Attach, macro.ContextDocumentAst, DispatchTrace, cf.KvSource, ReductionEvent]
        assert set(records) <= set(Record.__subclasses__())
        for cls in Record.__subclasses__():
            assert cls.__dictoffset__ == 0, cls


class TestHeaderPattern:
    def test_a_key_without_values_is_rejected(self):
        with pytest.raises(ValueError, match="pattern key A has no values"):
            cf.HeaderPattern({"A": []})

    def test_text_form_is_the_canonical_one(self):
        pattern = cf.HeaderPattern.parse("Application=A,B,Database=*")
        assert str(pattern) == pattern.canonical() == "Application=A,B,Database=*"


# Whitespace, some of it not ASCII and some of it line breaks, that the old and new checks must agree on.
_ODD_SPACE = st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"])


@settings(max_examples=200, deadline=None)
@given(st.text(st.one_of(st.characters(), _ODD_SPACE)))
def test_require_token_rejects_what_the_per_character_check_rejected(text):
    """One split rejects exactly what the per-character check it replaced rejected."""
    previous = not text or text != text.strip() or any(ch.isspace() for ch in text)
    try:
        _require_token(text, "name")
    except ValueError:
        assert previous
    else:
        assert not previous
