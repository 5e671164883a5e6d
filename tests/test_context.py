"""Context engine: matching, loading, for-each application, collisions."""

from __future__ import annotations

import random

import pytest

import ctxflow as cf

from conftest import FIXTURES, REDUCE_CONTEXTS, WORKFLOW, load_fixture_state, states_equivalent

WORKFLOW_TEXT = WORKFLOW.read_text(encoding="utf-8")


def ctx(text: str, doc_id: str) -> cf.ContextDocumentAst:
    return cf.parse_context(text, doc_id)


class TestMatchHeader:
    @pytest.mark.parametrize(
        "pattern, description, expected",
        [
            ({"Application": ["CMKIN", "OSCAR"]}, {"Application": "CMKIN", "Site": "FNAL"}, True),
            ({"Application": ["CMKIN"]}, {"Site": "FNAL"}, False),
            ({"Application": ["*"]}, {"Application": "Digitization"}, True),
            ({"Application": ["CMKIN"], "Site": ["FNAL"]}, {"Application": "CMKIN"}, False),
        ],
    )
    def test_matching(self, pattern, description, expected):
        assert cf.HeaderPattern(pattern).matches(cf.Description(description)) is expected

    def test_matching_is_pure(self):
        pattern = cf.HeaderPattern({"Application": ["CMKIN"]})
        description = cf.Description({"Application": "CMKIN"})
        assert pattern.matches(description)
        assert pattern.entries == {"Application": ["CMKIN"]}
        assert description.entries == {"Application": "CMKIN"}


class TestLoadContext:
    def test_terminals_attached_once(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        assert [name for name, el in state.elements.items() if el.is_terminal] == [
            "PhysicsGroupDB",
            "RefDB",
        ]
        assert state.loaded_contexts == ["PhysicsGroup.ctx"]

    def test_loading_twice_collides_on_terminals(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        text = (FIXTURES / "PhysicsGroup.ctx").read_text(encoding="utf-8")
        with pytest.raises(cf.DuplicateElementError):
            state.load_context(ctx(text, "PhysicsGroup.ctx"))

    def test_framework_groups(self):
        state = load_fixture_state(contexts=["Framework.ctx"], workflow=False)
        assert state.framework_groups == {
            "preGroup": ["contactDB"],
            "onGroup": ["configureJob", "makeJob", "runJob"],
        }

    def test_terminal_gets_matching_block_applied_at_load(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        assert state.elements["RefDB"].handlers == {"contactDB": "connectToDatabase"}


class TestApplyBlocks:
    def test_attach_gains_directives(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        el = state.attach_element("OSCAR")
        deps = [d.canonical() for d in el.dependencies]
        assert deps == ["Database=PhysicsGroupDB", "Database=RefDB"]
        assert el.attributes["HCal"] == "On"
        assert el.attributes["ECal"] == "On"
        assert el.attributes["ECalThreshold"] == cf.FlowRef("PhysicsGroupDB", "ECalThreshold2004")

    def test_non_matching_element_unchanged(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        el = state.attach_element("Unrelated")
        assert el.attributes == {} and el.dependencies == []

    def test_reapplication_is_idempotent(self):
        state = load_fixture_state(contexts=["PhysicsGroup.ctx"], workflow=False)
        el = state.attach_element("OSCAR")
        before = (dict(el.attributes), list(el.dependencies), list(state.log))
        state.apply_blocks("OSCAR")
        state.apply_blocks("OSCAR")
        assert (dict(el.attributes), list(el.dependencies), list(state.log)) == before
        assert state.detect_collisions() == []

    def test_last_loaded_document_wins(self):
        doc_a = "contextBlock Application=CMKIN\n define TopMass 170\nend\n"
        doc_b = "contextBlock Application=CMKIN\n define TopMass 175\nend\n"
        state = cf.Linker()
        state.load_context(ctx(doc_a, "a.ctx"))
        state.load_context(ctx(doc_b, "b.ctx"))
        el = state.attach_element("CMKIN")
        assert el.attributes["TopMass"] == "175"
        report = state.detect_collisions()
        assert len(report) == 1
        assert (report[0].old_doc, report[0].new_doc) == ("a.ctx", "b.ctx")

    def test_last_wins_regardless_of_attach_time(self):
        doc_a = "contextBlock Application=CMKIN\n define TopMass 170\nend\n"
        doc_b = "contextBlock Application=CMKIN\n define TopMass 175\nend\n"
        state = cf.Linker()
        state.load_context(ctx(doc_a, "a.ctx"))
        state.attach_element("CMKIN")
        state.load_context(ctx(doc_b, "b.ctx"))
        assert state.elements["CMKIN"].attributes["TopMass"] == "175"
        assert len(state.detect_collisions()) == 1


class TestApplyStatement:
    def test_every_statement_but_attach_arrives_once_with_its_origin(self, monkeypatch):
        calls = []
        apply_statement = cf.Linker.apply_statement

        def record(self, element, statement, origin):
            calls.append((statement, origin))
            apply_statement(self, element, statement, origin)

        monkeypatch.setattr(cf.Linker, "apply_statement", record)
        docs = [ctx((FIXTURES / name).read_text(encoding="utf-8"), name) for name in REDUCE_CONTEXTS]
        workflow = cf.parse_workflow(WORKFLOW_TEXT)
        state = cf.Linker()
        for doc in docs:
            state.load_context(doc)
        state.run_statements(workflow)
        directives = {
            id(d) for doc in docs for item in doc.items if isinstance(item, cf.ContextBlockAst) for d in item.body
        }
        arrived = [(statement, origin) for statement, origin in calls if id(statement) not in directives]
        expected = [
            (item, doc.id) for doc in docs for item in doc.items
            if not isinstance(item, (cf.Attach, cf.ContextBlockAst))
        ] + [(statement, "workflow") for statement in workflow if not isinstance(statement, cf.Attach)]
        assert [(id(s), origin) for s, origin in arrived] == [(id(s), origin) for s, origin in expected]
        assert (cf.FrameworkDefine("preGroup", ("contactDB",)), "Framework.ctx") in arrived
        run_job = cf.NamespaceAdd("RunJob", cf.HeaderPattern.parse("Scheduler=LCG_ResourceBroker"))
        assert (run_job, "Scheduler.ctx") in arrived
        assert (cf.FrameworkRun(), "workflow") in arrived

    def test_element_statement_at_top_level_names_no_element(self):
        # The parser rejects it; a hand-built document reaches no element.
        state = cf.Linker()
        with pytest.raises(cf.UnknownElementError):
            state.load_context(cf.ContextDocumentAst("a.ctx", [cf.Define(None, "k", "v")]))


class TestResolveAlias:
    def test_alias_resolves_to_unique_match(self):
        state = load_fixture_state(contexts=["Scheduler.ctx"], workflow=False)
        state.attach("RunJob")
        assert state.resolve_alias("RunJob") == "LCG_ResourceBroker"

    def test_non_alias_is_identity(self):
        state = cf.Linker()
        state.attach_element("CMKIN")
        assert state.resolve_alias("CMKIN") == "CMKIN"

    def test_attached_name_wins_over_alias(self):
        state = cf.Linker()
        state.attach_element("X")
        state.attach_element("Y")
        state.add_alias("X", cf.HeaderPattern({"Application": ["Y"]}))
        assert state.resolve_alias("X") == "X"
        assert state.require_element("X") is state.elements["X"]

    def test_alias_without_match(self):
        state = load_fixture_state(contexts=["Scheduler.ctx"], workflow=False)
        with pytest.raises(cf.UnresolvedAliasError):
            state.resolve_alias("RunJob")

    def test_ambiguous_alias(self):
        state = cf.Linker()
        state.add_alias("any", cf.HeaderPattern({"Application": ["*"]}))
        state.attach_element("A")
        state.attach_element("B")
        with pytest.raises(cf.AmbiguousAliasError):
            state.resolve_alias("any")


class TestAttachAliased:
    def test_aliased_attach_takes_concrete_identity(self):
        state = load_fixture_state(contexts=["Scheduler.ctx"], workflow=False)
        el = state.attach("RunJob")
        assert el.name == "LCG_ResourceBroker"
        assert el.description.entries["Scheduler"] == "LCG_ResourceBroker"
        # the scheduler block applies to the concrete element
        assert el.attributes["UserJDLFile"] == cf.FlowRef("@args", "UserJDLFile")
        assert el.handlers["RunJob"] == "submit"

    def test_bare_attach_gets_default_description(self):
        state = cf.Linker()
        el = state.attach("CMKIN")
        assert el.description.entries == {"Application": "CMKIN"}

    def test_attach_without_alias_keeps_name(self):
        state = cf.Linker()
        el = state.attach("RunJob")
        assert el.name == "RunJob"

    def test_alias_without_concrete_value_cannot_name_an_element(self):
        state = cf.Linker()
        state.add_alias("Any", cf.HeaderPattern({"Scheduler": ["*"]}))
        with pytest.raises(cf.UnresolvedAliasError):
            state.attach("Any")


class TestDetectCollisions:
    def test_fixture_contexts_do_not_collide(self, fixture_state):
        assert fixture_state.detect_collisions() == []

    def test_same_literal_from_two_documents(self):
        doc = "contextBlock Application=X\n define k v\nend\n"
        state = cf.Linker()
        state.load_context(ctx(doc, "one.ctx"))
        state.load_context(ctx(doc, "two.ctx"))
        state.attach_element("X")
        (event,) = state.detect_collisions()
        assert (event.old_value, event.old_doc, event.new_value, event.new_doc) == ("v", "one.ctx", "v", "two.ctx")

    def test_site_default_shadowed_by_site_specific(self):
        default = "contextBlock Application=*\n define OutputPath /data/default\nend\n"
        site = "contextBlock Application=*\n define OutputPath /fnal/scratch\nend\n"
        state = cf.Linker()
        state.load_context(ctx(default, "Defaults.ctx"))
        state.load_context(ctx(site, "SiteFNAL.ctx"))
        state.attach_element("App")
        (record,) = state.detect_collisions()
        assert record.new_doc == "SiteFNAL.ctx"
        assert (record.old_value, record.new_value) == ("/data/default", "/fnal/scratch")
        assert state.elements["App"].attributes["OutputPath"] == "/fnal/scratch"

    def test_report_is_the_shadow_events_of_the_log(self):
        one = "contextBlock Application=X\n define k ::B:x\n define j 1\nend\n"
        two = "contextBlock Application=X\n define k ::B:y\n define j 2\nend\n"
        state = cf.Linker()
        state.load_context(ctx(one, "one.ctx"))
        state.load_context(ctx(two, "two.ctx"))
        state.attach_element("B")
        state.set_attribute("B", "y", "5")
        state.attach_element("X")
        cf.reduce_all(state)
        shadows = [e for e in state.provenance if e.kind == cf.ReductionEvent.SHADOW]
        assert len(shadows) < len(state.provenance)
        assert state.detect_collisions() == shadows
        assert [(e.attribute, e.old_value, e.new_value) for e in shadows] == [
            ("k", cf.FlowRef("B", "x"), cf.FlowRef("B", "y")),
            ("j", "1", "2"),
        ]


class TestOrderingProperties:
    def test_retro_application_equivalence(self):
        contexts = ["Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx"]
        load_then_attach = load_fixture_state(contexts=contexts, workflow=True)
        attach_then_load = cf.Linker()
        attach_then_load.run_statements(cf.parse_workflow(WORKFLOW_TEXT))
        for name in contexts:
            text = (FIXTURES / name).read_text(encoding="utf-8")
            attach_then_load.load_context(ctx(text, name))
        # the late-aliased element keeps its bare name, so compare on the rest
        assert "RunJob" in attach_then_load.elements
        load_then_attach.elements.pop("LCG_ResourceBroker")
        attach_then_load.elements.pop("RunJob")
        assert states_equivalent(load_then_attach, attach_then_load)

    def test_disjoint_documents_commute(self):
        rng = random.Random(20260809)
        for _ in range(25):
            n_elements = rng.randint(1, 5)
            names = [f"App{i}" for i in range(n_elements)]
            docs = []
            for d in range(2):
                lines = []
                for name in names:
                    lines.append(f"contextBlock Application={name}")
                    for k in range(rng.randint(0, 3)):
                        lines.append(f" define d{d}k{k} value{d}{k}")
                    lines.append("end")
                docs.append(("\n".join(lines) + "\n", f"doc{d}.ctx"))
            forward, backward = cf.Linker(), cf.Linker()
            for text, doc_id in docs:
                forward.load_context(ctx(text, doc_id))
            for text, doc_id in reversed(docs):
                backward.load_context(ctx(text, doc_id))
            for state in (forward, backward):
                for name in names:
                    state.attach_element(name)
            assert states_equivalent(forward, backward)
            assert forward.detect_collisions() == [] and backward.detect_collisions() == []

    def test_block_application_order_follows_load_order(self):
        doc_a = "contextBlock Application=X\n define k from-a\nend\n"
        doc_b = "contextBlock Application=X\n define k from-b\nend\n"
        combos = [
            (["a.ctx", "b.ctx"], "from-b"),
            (["b.ctx", "a.ctx"], "from-a"),
        ]
        texts = {"a.ctx": doc_a, "b.ctx": doc_b}
        for order, winner in combos:
            state = cf.Linker()
            for doc_id in order:
                state.load_context(ctx(texts[doc_id], doc_id))
            state.attach_element("X")
            assert state.elements["X"].attributes["k"] == winner
