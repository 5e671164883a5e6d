"""Framework execution: ordering, dispatch, groups, built-in handlers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxflow as cf
from ctxflow import framework
from ctxflow.framework import HandlerContext, DispatchTrace

import graphgen
from conftest import ARGS, FIXTURES, load_reduce_ready_state

FIXTURE_ORDER = ["PhysicsGroupDB", "RefDB", "CMKIN", "OSCAR", "Digitization", "LCG_ResourceBroker"]


def scan_order_oracle(state: cf.Linker) -> list[str]:
    """Independent stable-topo oracle: repeatedly take the first attached
    element whose resolved dependencies are all already placed."""
    placed: list[str] = []
    elements = list(state.elements.values())
    resolved: dict[str, set[str]] = {}
    for el in elements:
        deps: set[str] = set()
        for dep in el.dependencies:
            if isinstance(dep, str):
                deps.add(dep)
            else:
                deps.update(c.name for c in elements if c.name != el.name and dep.matches(c.description))
        resolved[el.name] = deps
    while len(placed) < len(elements):
        for el in elements:
            if el.name not in placed and resolved[el.name] <= set(placed):
                placed.append(el.name)
                break
        else:
            raise AssertionError("oracle found no placeable element")
    return placed


class TestDependencyOrder:
    def test_fixture_order(self, fixture_state):
        order = [el.name for el in cf.dependency_order(fixture_state)]
        assert order == FIXTURE_ORDER
        assert order == scan_order_oracle(fixture_state)

    def test_no_dependencies_means_insertion_order(self):
        state = cf.Linker()
        for name in ["Z", "M", "A"]:
            state.attach_element(name)
        assert [el.name for el in cf.dependency_order(state)] == ["Z", "M", "A"]

    def test_dependency_cycle(self):
        state = cf.Linker()
        state.attach_element("A")
        state.attach_element("B")
        state.elements["A"].dependencies.append("B")
        state.elements["B"].dependencies.append("A")
        with pytest.raises(cf.DependencyCycleError):
            cf.dependency_order(state)

    def test_dependencies_of_gives_each_element_once_and_never_the_dependent(self):
        state = cf.Linker()
        for name in ["A", "B", "C"]:
            state.attach_element(name, cf.Description({"Application": name, "Tier": "t"}))
        state.add_dependency("A", "C")
        state.add_dependency("A", cf.HeaderPattern({"Tier": ["t"]}))
        assert [el.name for el in state.dependencies_of(state.elements["A"])] == ["C", "B"]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3), st.integers(0, 7)), max_size=12))
def test_dependency_order_equals_scan_or_reports_a_real_cycle(n, deps):
    """Random name, pattern (one tier, or ``*``) and self dependencies."""
    state = cf.Linker()
    for i in range(n):
        state.attach_element(f"E{i}", cf.Description({"Application": f"E{i}", "Tier": f"t{i % 3}"}))
    for a, kind, b in deps:
        if kind == 0:
            state.add_dependency(f"E{a % n}", f"E{b % n}")
        else:
            tier = "*" if kind == 3 else f"t{b % 3}"
            state.add_dependency(f"E{a % n}", cf.HeaderPattern({"Tier": [tier]}))
    try:
        expected = scan_order_oracle(state)
    except AssertionError:
        expected = None
    if expected is not None:
        assert [el.name for el in cf.dependency_order(state)] == expected
        return
    with pytest.raises(cf.DependencyCycleError) as err:
        cf.dependency_order(state)
    # Each hop depends on the next.
    graphgen.assert_cycle(
        err.value.path, lambda a, b: b in [d.name for d in state.dependencies_of(state.elements[a])]
    )


def three_by_three_state() -> cf.Linker:
    state = cf.Linker()
    for name in ["E1", "E2", "E3"]:
        state.attach_element(name)
    state.framework_groups["onGroup"] = ["t1", "t2", "t3"]
    return state


class TestRunFramework:
    def test_nine_messages_task_major(self):
        state = three_by_three_state()
        trace = cf.run_framework(state, n_jobs=1)
        assert len(trace.messages) == 9
        observed = [(m.task, m.element) for m in trace.messages]
        expected = [(t, e) for t in ["t1", "t2", "t3"] for e in ["E1", "E2", "E3"]]
        assert observed == expected

    def test_unhandled_message_is_traced_without_effect(self):
        state = three_by_three_state()
        trace = cf.run_framework(state, n_jobs=1)
        assert all(m.handled is False for m in trace.messages)
        assert trace.jobs == [] and trace.manifest == []

    def test_fixture_run_counts(self):
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=3, args=ARGS)
        elements = len(state.elements)
        expected = 1 * 1 * elements + 3 * 3 * elements
        assert len(trace.messages) == expected
        assert len(trace.manifest) == 3
        on_group = [m for m in trace.messages if m.task in ("configureJob", "makeJob", "runJob")]
        per_pair: dict[tuple[str, str], int] = {}
        for m in on_group:
            per_pair[(m.task, m.element)] = per_pair.get((m.task, m.element), 0) + 1
        assert set(per_pair.values()) == {3}

    def test_task_major_matches_dependency_order(self):
        state = load_reduce_ready_state()
        order = [el.name for el in cf.dependency_order(state)]
        trace = cf.run_framework(state, n_jobs=2, args=ARGS)
        seen: dict[tuple[int, str], list[str]] = {}
        for m in trace.messages:
            seen.setdefault((m.iteration, m.task), []).append(m.element)
        for elements in seen.values():
            assert elements == order

    def test_two_runs_are_identical(self):
        a = cf.run_framework(load_reduce_ready_state(), n_jobs=2, args=ARGS)
        b = cf.run_framework(load_reduce_ready_state(), n_jobs=2, args=ARGS)
        assert a.messages == b.messages
        assert "".join(cf.emit_manifest(a)) == "".join(cf.emit_manifest(b))

    def test_pre_group_effects_visible_to_all_iterations(self):
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=3, args=ARGS)
        for iteration in range(3):
            snapshot = trace.snapshots[iteration]
            assert snapshot["Digitization"]["PileupRate"] == "25ns"
        assert [job.iteration for job in trace.manifest] == [0, 1, 2]

    def test_job_index_distinguishes_iterations(self):
        state = load_reduce_ready_state()
        trace = cf.run_framework(state, n_jobs=2, args=ARGS)
        assert trace.snapshots[0]["CMKIN"]["jobIndex"] == "0"
        assert trace.snapshots[1]["CMKIN"]["jobIndex"] == "1"

    def test_state_fully_reduced_after_run(self):
        state = load_reduce_ready_state()
        cf.run_framework(state, n_jobs=3, args=ARGS)
        assert state.flow_count() == 0

    def test_resolution_does_not_grow_with_jobs(self, monkeypatch):
        calls = []
        real = cf.Linker.source_of

        def counting(state, target, ref):
            calls.append(ref)
            return real(state, target, ref)

        monkeypatch.setattr(cf.Linker, "source_of", counting)
        counts = {}
        for n_jobs in (1, 5, 20):
            state = load_reduce_ready_state()
            calls.clear()
            cf.run_framework(state, n_jobs=n_jobs, args=ARGS)
            counts[n_jobs] = len(calls)
        assert counts[1] > 0
        assert counts[5] == counts[1] and counts[20] == counts[1], counts

    def test_reads_do_not_grow_with_jobs(self, monkeypatch):
        # Jobs after the first are replayed, so configureJob, makeJob and
        # submit find only literals there.
        calls = []
        real = framework.read_attribute

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(framework, "read_attribute", counting)
        counts = {}
        for n_jobs in (1, 5, 20):
            state = load_reduce_ready_state()
            calls.clear()
            cf.run_framework(state, n_jobs=n_jobs, args=ARGS)
            counts[n_jobs] = len(calls)
        assert counts[1] > 0
        assert counts[5] == counts[1] and counts[20] == counts[1], counts

    def test_handler_rewiring_is_seen_by_later_jobs(self):
        # From job 1 on, a handler rebinds X.k to B; in job 1 only it rebinds
        # X.j to B and points the alias Src at C. The plan re-arms X.j's
        # original flow for job 2; the alias stays.
        state = cf.Linker()
        for name in ["A", "B", "C", "X", "Z"]:
            state.attach_element(name)
        for name in ["A", "B", "C"]:
            state.set_attribute(name, "v", f"from-{name}")
        state.add_alias("Src", cf.HeaderPattern({"Application": ["A"]}))
        state.set_attribute("X", "k", cf.FlowRef("A", "v"))
        state.set_attribute("X", "j", cf.FlowRef("A", "v"))
        state.set_attribute("Z", "m", cf.FlowRef("Src", "v"))

        def rewire(ctx):
            if ctx.iteration >= 1:
                ctx.state.set_attribute(ctx.element, "k", cf.FlowRef("B", "v"))
            if ctx.iteration == 1:
                ctx.state.set_attribute(ctx.element, "j", cf.FlowRef("B", "v"))
                ctx.state.add_alias("Src", cf.HeaderPattern({"Application": ["C"]}))

        state.handler_library["rewire"] = rewire
        state.register_handler("X", "rewire", "rewire")
        state.framework_groups["onGroup"] = ["rewire"]
        trace = cf.run_framework(state, n_jobs=3)
        seen = [
            (trace.snapshots[job]["X"]["k"], trace.snapshots[job]["X"]["j"], trace.snapshots[job]["Z"]["m"])
            for job in range(3)
        ]
        assert seen == [
            ("from-A", "from-A", "from-A"),
            ("from-B", "from-B", "from-C"),
            ("from-B", "from-A", "from-C"),
        ]
        assert state.flow_count() == 0

    def test_one_schedule_whatever_the_definition_order(self):
        # preGroup first, onGroup once per job, every other group once after
        # the last job, at its iteration, in definition order.
        state = cf.Linker()
        state.attach_element("E")
        for group in ["post", "onGroup", "last", "preGroup"]:
            state.framework_groups[group] = [f"{group}-task"]
        trace = cf.run_framework(state, n_jobs=2)
        assert [(m.iteration, m.task) for m in trace.messages] == [
            (0, "preGroup-task"), (0, "onGroup-task"), (1, "onGroup-task"), (1, "post-task"), (1, "last-task"),
        ]
        assert sorted(trace.snapshots) == [0, 1]

    def test_submit_before_make_job_submits_the_previous_job(self):
        # In job 0 submit finds nothing pending and submits its own record;
        # from job 1 on it submits the record makeJob stored in the job before.
        state = cf.Linker()
        state.attach_element("E")
        state.framework_groups["onGroup"] = ["submitJobs", "make"]
        state.register_handler("E", "submitJobs", "submit")
        state.register_handler("E", "make", "makeJob")
        trace = cf.run_framework(state, n_jobs=3)
        assert [(job.iteration, job.attributes["jobIndex"]) for job in trace.manifest] == [
            (0, "0"), (0, "0"), (1, "1"),
        ]
        assert [job.submitted for job in trace.jobs] == [True, True, False]

    def test_no_groups_defined_is_an_error(self):
        state = cf.Linker()
        state.attach_element("X")
        with pytest.raises(cf.CtxflowError):
            cf.run_framework(state)

    def test_failing_handler_aborts(self):
        state = cf.Linker()
        state.attach_element("X")

        def explode(ctx):
            raise RuntimeError("boom")

        state.handler_library["explode"] = explode
        state.register_handler("X", "t", "explode")
        state.framework_groups["grp"] = ["t"]
        with pytest.raises(cf.HandlerError) as err:
            cf.run_framework(state)
        assert err.value.element == "X" and err.value.task == "t"


def _jobs_state(seed: int) -> cf.Linker:
    """A graphgen state with an onGroup of configureJob, makeJob and submit
    bound to random elements, and extra flows that read jobIndex (of a
    terminal too), earlier such flows, or @args."""
    rng = random.Random(seed)
    state = graphgen.build_state(graphgen.build_recipe(rng, max_elements=10, max_flows=30))
    state.attach_element("T", is_terminal=True)
    names = list(state.elements)
    extra: list[tuple[str, str]] = []
    for n in range(rng.randint(0, 8)):
        kind = rng.randrange(3)
        if kind == 0 or not extra:
            ref = cf.FlowRef(rng.choice(names), "jobIndex")
        elif kind == 1:
            ref = cf.FlowRef(*rng.choice(extra))
        else:
            ref = cf.FlowRef("@args", "x")
        target = rng.choice(names)
        state.set_attribute(target, f"j{n}", ref)
        extra.append((target, f"j{n}"))
    state.framework_groups["onGroup"] = ["configure", "make", "submitJobs"]
    configured = rng.choice(names)
    for name in names:
        if name == configured or rng.random() < 0.5:
            state.register_handler(name, "configure", "configureJob")
        if rng.random() < 0.5:
            state.register_handler(name, "make", "makeJob")
    state.register_handler(rng.choice(names), "submitJobs", "submit")
    return state


def _run_counting_replays(state: cf.Linker, n_jobs: int):
    replays = []
    real = state.replay_reductions

    def counting(plan, args):
        replays.append(len(plan))
        real(plan, args)

    state.replay_reductions = counting
    return cf.run_framework(state, n_jobs=n_jobs, args={"x": "ax"}), len(replays)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5))
def test_replayed_jobs_equal_general_jobs(seed, n_jobs):
    """The built-in handlers take the replay path; the same handler behind
    a wrapper takes the general path. Both give the same run."""
    replayed = _jobs_state(seed)
    general = _jobs_state(seed)
    general.handler_library["configureJob"] = lambda ctx: framework.configure_job(ctx)
    a, replays = _run_counting_replays(replayed, n_jobs)
    b, no_replays = _run_counting_replays(general, n_jobs)
    assert (replays, no_replays) == (n_jobs - 1, 0)
    assert replayed.provenance == general.provenance
    assert a.messages == b.messages
    assert a.jobs == b.jobs
    assert a.manifest == b.manifest
    assert a.snapshots == b.snapshots
    assert {n: el.attributes for n, el in replayed.elements.items()} == {
        n: el.attributes for n, el in general.elements.items()
    }
    assert replayed.flow_count() == general.flow_count() == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5))
def test_replayed_jobs_emit_the_general_jobs_log_bytes(seed, n_jobs):
    """The general path logs a fresh event per step, so its text log is the
    reference for the replay path's shared events and memoized lines."""
    replayed = _jobs_state(seed)
    general = _jobs_state(seed)
    general.handler_library["configureJob"] = lambda ctx: framework.configure_job(ctx)
    assert _run_counting_replays(replayed, n_jobs)[1] == n_jobs - 1
    assert _run_counting_replays(general, n_jobs)[1] == 0
    assert "".join(cf.emit_provenance(replayed)) == "".join(cf.emit_provenance(general))


class TestReplayedEventSharing:
    """A replayed step whose value did not change logs the previous job's
    event object again; a changed value gets a new event."""

    @staticmethod
    def _jobs(state: cf.Linker, n_jobs: int, args: dict[str, str]) -> list[list]:
        """Run `n_jobs` jobs on the replay path and return the log cut into
        one slice per job."""
        steps = []
        real = state.replay_reductions

        def keeping(plan, args):
            steps.append(len(plan))
            real(plan, args)

        state.replay_reductions = keeping
        cf.run_framework(state, n_jobs=n_jobs, args=args)
        per_job = steps[0]
        assert steps == [per_job] * (n_jobs - 1)
        start = len(state.provenance) - n_jobs * per_job
        return [state.provenance[start + job * per_job:start + (job + 1) * per_job] for job in range(n_jobs)]

    def test_unchanged_steps_relog_job_zero_events(self):
        state = load_reduce_ready_state()
        jobs = self._jobs(state, 3, ARGS)
        assert len(jobs[0]) == 9
        for job in (1, 2):
            assert all(event is first for event, first in zip(jobs[job], jobs[0]))
        assert len({id(event) for events in jobs for event in events}) == len(jobs[0])

    def test_changed_steps_log_new_events(self):
        changed = 0
        for seed in range(20):
            state = _jobs_state(seed)
            jobs = self._jobs(state, 3, {"x": "ax"})
            built = len(jobs[0])
            for job in (1, 2):
                for event, before in zip(jobs[job], jobs[job - 1]):
                    if event.value == before.value:
                        assert event is before
                    else:
                        built += 1
                        assert event is not before
                        assert (event.element, event.attribute, event.source, event.source_attr, event.doc) == (
                            before.element, before.attribute, before.source, before.source_attr, before.doc)
                    if event.source_attr == "jobIndex":
                        assert event.value == str(job)
            assert len({id(event) for events in jobs for event in events}) == built
            changed += built - len(jobs[0])
        assert changed > 0

    def test_a_plan_is_the_logged_events(self):
        state = cf.Linker()
        state.attach_element("A")
        state.attach_element("B")
        state.set_attribute("B", "v", "1")
        state.set_attribute("A", "x", cf.FlowRef("B", "v"))
        state.set_attribute("A", "y", cf.FlowRef("@args", "k"))
        cf.reduce_all(state, {"k": "a"})
        plan = list(state.provenance)
        state.elements["B"].attributes["v"] = "2"
        state.replay_reductions(plan, {"k": "a"})
        assert state.elements["A"].attributes == {"x": "2", "y": "a"}
        before = {event.attribute: event for event in plan}
        after = {event.attribute: event for event in state.provenance[len(plan):]}
        assert after["y"] is before["y"]
        assert after["x"] is not before["x"] and after["x"].value == "2"


class TestRegisterHandler:
    def test_bind(self):
        state = cf.Linker()
        state.attach_element("RefDB", is_terminal=True)
        state.register_handler("RefDB", "contactDB", "connectToDatabase")
        assert state.elements["RefDB"].handlers == {"contactDB": "connectToDatabase"}

    def test_unknown_handler(self):
        state = cf.Linker()
        state.attach_element("X")
        with pytest.raises(cf.UnknownHandlerError):
            state.register_handler("X", "t", "doesNotExist")

    def test_rebinding_replaces(self):
        state = cf.Linker()
        state.attach_element("X")
        state.register_handler("X", "t", "makeJob")
        state.register_handler("X", "t", "submit")
        assert state.elements["X"].handlers == {"t": "submit"}

    def test_binds_to_the_literal_task_string(self):
        state = cf.Linker()
        state.attach_element("LCG_ResourceBroker")
        state.register_handler("LCG_ResourceBroker", "RunJob", "submit")
        assert state.elements["LCG_ResourceBroker"].handlers["RunJob"] == "submit"


class TestBuiltinHandlers:
    def test_connect_loads_kv_into_attributes(self):
        state = cf.Linker()
        el = state.attach_element("RefDB", is_terminal=True)
        state.add_kv_source(cf.KvSource(cf.Description({"Database": "RefDB"}), FIXTURES / "RefDB.kv"))
        handler = state.handler_library["connectToDatabase"]
        handler(HandlerContext(state, el, "contactDB", 0, {}, DispatchTrace()))
        assert cf.read_attribute(state, "RefDB", "Lumi_1032") == "25ns"

    def test_connect_without_source_is_an_error(self):
        state = cf.Linker()
        el = state.attach_element("RefDB", is_terminal=True)
        handler = state.handler_library["connectToDatabase"]
        with pytest.raises(cf.KvSourceError):
            handler(HandlerContext(state, el, "contactDB", 0, {}, DispatchTrace()))

    def test_configure_then_make_job(self):
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        trace = DispatchTrace()
        el = state.elements["CMKIN"]
        state.handler_library["configureJob"](HandlerContext(state, el, "configureJob", 0, ARGS, trace))
        assert not any(isinstance(v, cf.FlowRef) for v in el.attributes.values())
        state.handler_library["makeJob"](HandlerContext(state, el, "makeJob", 0, ARGS, trace))
        (record,) = trace.jobs
        assert record.attributes["ApplicationVersion"] == "6.133"

    def test_submit_appends_one_record(self):
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        trace = DispatchTrace()
        el = state.elements["LCG_ResourceBroker"]
        before = len(trace.manifest)
        state.handler_library["submit"](HandlerContext(state, el, "runJob", 0, ARGS, trace))
        assert len(trace.manifest) == before + 1

    def test_submit_takes_every_pending_job(self):
        # Whatever their iteration, the stored jobs not yet submitted go out
        # in the order they were made.
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        trace = DispatchTrace()
        cmkin = state.elements["CMKIN"]
        broker = state.elements["LCG_ResourceBroker"]
        for iteration in (0, 1):
            state.handler_library["makeJob"](HandlerContext(state, cmkin, "makeJob", iteration, ARGS, trace))
        state.handler_library["submit"](HandlerContext(state, broker, "runJob", 1, ARGS, trace))
        assert [(job.iteration, job.element) for job in trace.manifest] == [(0, "CMKIN"), (1, "CMKIN")]
        assert trace.manifest == trace.jobs
        assert [job.submitted for job in trace.jobs] == [True, True]

    def test_submit_flushes_stored_jobs(self):
        state = load_reduce_ready_state()
        cf.run_pregroup(state, ARGS)
        trace = DispatchTrace()
        cmkin = state.elements["CMKIN"]
        broker = state.elements["LCG_ResourceBroker"]
        state.handler_library["makeJob"](HandlerContext(state, cmkin, "makeJob", 0, ARGS, trace))
        state.handler_library["submit"](HandlerContext(state, broker, "runJob", 0, ARGS, trace))
        assert [job.element for job in trace.manifest] == ["CMKIN"]
        assert all(job.submitted for job in trace.jobs)


class TestSnapshotSharing:
    """An iteration's snapshot entry may be the dict of the element's makeJob
    record, but only while the two are equal."""

    @staticmethod
    def _state(tasks: list[str]) -> cf.Linker:
        state = cf.Linker()
        for name in ["A", "B"]:
            state.attach_element(name)
            state.register_handler(name, "configure", "configureJob")
            state.register_handler(name, "make", "makeJob")
        state.set_attribute("A", "v", cf.FlowRef("@args", "x"))
        state.set_attribute("B", "w", cf.FlowRef("A", "v"))
        state.register_handler("B", "submitJobs", "submit")
        state.framework_groups["onGroup"] = tasks
        return state

    def test_write_after_make_job_shows_only_in_the_snapshot(self):
        state = self._state(["configure", "make", "late", "submitJobs"])

        def late(ctx):
            ctx.state.set_attribute(ctx.element, "v", f"late-{ctx.iteration}")

        state.handler_library["late"] = late
        state.register_handler("A", "late", "late")
        trace, replays = _run_counting_replays(state, 3)
        assert replays == 0
        for job in range(3):
            assert trace.snapshots[job]["A"] == {"jobIndex": str(job), "v": f"late-{job}"}
            assert trace.snapshots[job]["B"] is trace.jobs[2 * job + 1].attributes
            assert trace.jobs[2 * job].attributes == {"jobIndex": str(job), "v": "ax"}
        assert "".join(cf.emit_manifest(trace)) == "".join(
            f"JOB {job} A jobIndex={job},v=ax\nJOB {job} B jobIndex={job},w=ax\n" for job in range(3)
        )

    def test_replayed_snapshot_equals_a_fresh_copy(self, monkeypatch):
        state = self._state(["configure", "make", "submitJobs"])
        fresh = []
        real = framework.snapshot

        def copying(state, jobs=()):
            fresh.append({el.name: dict(el.attributes) for el in state.elements.values()})
            return real(state, jobs)

        monkeypatch.setattr(framework, "snapshot", copying)
        trace, replays = _run_counting_replays(state, 3)
        assert replays == 2
        assert [trace.snapshots[job] for job in range(3)] == fresh
        assert all(trace.snapshots[job][name] is record.attributes
                   for job in range(3) for name, record in zip("AB", trace.jobs[2 * job:2 * job + 2]))
