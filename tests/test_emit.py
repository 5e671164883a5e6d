"""Emitters: canonical macro, DAG, shell scripts, provenance, manifest."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxflow as cf

import graphgen
from conftest import ARGS, GOLDEN, load_fixture_state, load_reduce_ready_state, states_equivalent


def reduced_state() -> cf.Linker:
    state = load_reduce_ready_state()
    cf.run_pregroup(state, ARGS)
    cf.reduce_all(state, ARGS)
    return state


class TestEmitMacro:
    def test_fixture_matches_golden_bytes(self, fixture_state):
        assert cf.emit_macro(fixture_state) == GOLDEN.read_text(encoding="utf-8")

    def test_empty_state(self):
        assert cf.emit_macro(cf.Linker()) == ""

    def test_reduced_state_has_no_references(self):
        text = cf.emit_macro(reduced_state())
        assert "::" not in text

    def test_golden_replay_is_stable(self):
        # Feeding the expanded workflow back through the engine reproduces it.
        state = cf.Linker()
        state.run_statements(cf.parse_workflow(GOLDEN.read_text(encoding="utf-8")))
        assert cf.emit_macro(state) == GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize("value", ["a b", "", "::B:c", ":;c", "tab\there"])
    def test_literal_that_is_not_a_token_is_rejected(self, value):
        state = cf.Linker()
        state.attach_element("X")
        state.set_attribute("X", "k", cf.FlowRef("@args", "v"))
        cf.reduce_all(state, {"v": value})
        with pytest.raises(cf.CtxflowError, match=r"attribute X\.k: "):
            cf.emit_macro(state)


def _token_safe(value: str) -> bool:
    return not value.startswith(("::", ":;")) and not any(ch.isspace() for ch in value)


_token_values = st.text(st.characters(codec="utf-8"), min_size=1, max_size=12).filter(_token_safe)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.lists(_token_values, min_size=1, max_size=8))
def test_reduced_macro_replays_to_an_equivalent_state(seed, values):
    """parse(emit_macro(reduced)) replays to the reduced state, for any
    literal that is one macro token: chains of flows plus @args bindings."""
    rng = random.Random(seed)
    state = graphgen.build_state(graphgen.build_recipe(rng, max_elements=8, max_flows=20))
    names = list(state.elements)
    args = {}
    for i, value in enumerate(values):
        args[f"x{i}"] = value
        state.set_attribute(rng.choice(names), f"p{i}", cf.FlowRef("@args", f"x{i}"))
    cf.reduce_all(state, args)
    text = cf.emit_macro(state)
    replay = cf.Linker()
    replay.run_statements(cf.parse_workflow(text))
    assert states_equivalent(state, replay)
    assert cf.emit_macro(replay) == text


class TestEmitDag:
    def test_fixture_dag(self, fixture_state):
        assert cf.emit_dag(fixture_state) == (
            "JOB CMKIN CMKIN.sub\n"
            "JOB OSCAR OSCAR.sub\n"
            "JOB Digitization Digitization.sub\n"
            "JOB LCG_ResourceBroker LCG_ResourceBroker.sub\n"
            "PARENT CMKIN CHILD OSCAR\n"
            "PARENT OSCAR CHILD Digitization\n"
        )

    def test_single_element(self):
        state = cf.Linker()
        state.attach_element("Solo")
        assert cf.emit_dag(state) == "JOB Solo Solo.sub\n"

    def test_independent_elements_keep_insertion_order(self):
        state = cf.Linker()
        state.attach_element("B")
        state.attach_element("A")
        assert cf.emit_dag(state) == "JOB B B.sub\nJOB A A.sub\n"

    def test_terminals_never_appear(self, fixture_state):
        text = cf.emit_dag(fixture_state)
        assert "PhysicsGroupDB" not in text and "RefDB" not in text

    def test_round_trip_of_dependency_relation(self, fixture_state):
        # Tiny reader for the emitted dialect, used only here.
        jobs, arrows = [], set()
        for line in cf.emit_dag(fixture_state).splitlines():
            parts = line.split()
            if parts[0] == "JOB":
                jobs.append(parts[1])
            else:
                arrows.add((parts[1], parts[3]))
        expected = set()
        names = set(jobs)
        for el in fixture_state.elements.values():
            for dep in el.dependencies:
                if isinstance(dep, str) and dep in names and el.name in names:
                    expected.add((dep, el.name))
        assert arrows == expected

    def test_dependency_cycle_rejected(self):
        state = cf.Linker()
        state.attach_element("A")
        state.attach_element("B")
        state.elements["A"].dependencies.append("B")
        state.elements["B"].dependencies.append("A")
        with pytest.raises(cf.DependencyCycleError):
            cf.emit_dag(state)


class TestEmitShell:
    def test_single_job_produces_one_script_per_application(self):
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=1, args=ARGS)
        scripts = list(cf.emit_shell(state, trace))
        assert [name for name, _ in scripts] == [
            "0_CMKIN.sh",
            "0_OSCAR.sh",
            "0_Digitization.sh",
            "0_LCG_ResourceBroker.sh",
        ]
        cmkin = dict(scripts)["0_CMKIN.sh"]
        assert "export ApplicationVersion=6.133\n" in cmkin
        assert cmkin.startswith("#!/bin/sh\n")
        assert cmkin.endswith("echo run CMKIN\n")

    def test_three_jobs_produce_twelve_scripts(self):
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=3, args=ARGS)
        assert len(list(cf.emit_shell(state, trace))) == 12

    def test_exports_are_sorted_by_key(self):
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=1, args=ARGS)
        body = dict(cf.emit_shell(state, trace))["0_CMKIN.sh"]
        keys = [line.split("=", 1)[0].removeprefix("export ") for line in body.splitlines() if "=" in line]
        assert keys == sorted(keys)

    def test_unreduced_state_is_rejected(self, fixture_state):
        with pytest.raises(cf.NotReducedError):
            cf.emit_shell(fixture_state, cf.DispatchTrace())

    @staticmethod
    def _attached(*names: str) -> cf.Linker:
        state = cf.Linker()
        state.run_statements(cf.parse_workflow("".join(f"attach {name}\n" for name in names)))
        return state

    def test_key_that_only_a_later_iteration_holds_is_rejected(self):
        # Iteration 0's key sets are valid; the layouts built from them must
        # not let iteration 1's new key through unchecked.
        trace = cf.DispatchTrace(snapshots={
            0: {"A": {"k": "a"}, "B": {"k": "b"}},
            1: {"A": {"k": "a"}, "B": {"k": "b", "my-key": "c"}},
        })
        with pytest.raises(cf.CtxflowError, match=r"^attribute B\.my-key: not a shell variable name"):
            cf.emit_shell(self._attached("A", "B"), trace)

    def test_key_set_that_changes_between_iterations_is_exported(self):
        trace = cf.DispatchTrace(snapshots={
            0: {"A": {"k": "a"}},
            1: {"A": {"j": "b c", "k": "a"}},
            2: {"A": {"k": "d"}},
            3: {"A": {"x": "e"}},
        })
        assert list(cf.emit_shell(self._attached("A"), trace)) == [
            ("0_A.sh", "#!/bin/sh\nexport k=a\necho run A\n"),
            ("1_A.sh", "#!/bin/sh\nexport j='b c'\nexport k=a\necho run A\n"),
            ("2_A.sh", "#!/bin/sh\nexport k=d\necho run A\n"),
            ("3_A.sh", "#!/bin/sh\nexport x=e\necho run A\n"),
        ]


class TestEmitProvenance:
    def test_one_reduce_line_per_flow(self):
        state = load_reduce_ready_state()
        initial = state.flow_count()
        cf.run_pregroup(state, ARGS)
        cf.reduce_all(state, ARGS)
        lines = "".join(cf.emit_provenance(state)).splitlines()
        assert len([l for l in lines if l.startswith("REDUCE ")]) == initial

    def test_flow_line_names_source_and_document(self):
        text = cf.emit_provenance(reduced_state())
        assert "REDUCE CMKIN.HiggsMass <- PhysicsGroupDB.HMass2004 = 125.0 ctx=PhysicsGroup.ctx\n" in text

    def test_empty_before_reduction(self, fixture_state):
        assert "".join(cf.emit_provenance(fixture_state)) == ""

    def test_shadow_line_format(self):
        doc_a = "contextBlock Application=X\n define k v1\nend\n"
        doc_b = "contextBlock Application=X\n define k v2\nend\n"
        state = cf.Linker()
        state.load_context(cf.parse_context(doc_a, "a.ctx"))
        state.load_context(cf.parse_context(doc_b, "b.ctx"))
        state.attach_element("X")
        assert "".join(cf.emit_provenance(state)) == "SHADOW X.k a.ctx -> b.ctx\n"


class TestDeterminism:
    def test_emitters_are_byte_stable_across_rebuilds(self):
        macro_texts, dag_texts, shell_texts, prov_texts, manifest_texts = set(), set(), set(), set(), set()
        for _ in range(5):
            plain = load_fixture_state()
            macro_texts.add(cf.emit_macro(plain))
            dag_texts.add(cf.emit_dag(plain))
            state = load_reduce_ready_state()
            trace = cf.run_framework(state, n_jobs=2, args=ARGS)
            shell_texts.add("".join(name + body for name, body in cf.emit_shell(state, trace)))
            prov_texts.add("".join(cf.emit_provenance(state)))
            manifest_texts.add("".join(cf.emit_manifest(trace)))
        for texts in (macro_texts, dag_texts, shell_texts, prov_texts, manifest_texts):
            assert len(texts) == 1
