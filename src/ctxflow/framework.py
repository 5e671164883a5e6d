"""Framework-message execution: dependency ordering, dispatch, handlers.

The framework issues each task of each group as a message to every element
in dependency order; an element responds only if a handler is bound to that
task. ``preGroup`` runs first, ``onGroup`` once per job, every other group
once after the last job. Jobs differ only in ``jobIndex`` and the values
copied along flows. When every onGroup handler is a built-in one that
writes nothing but reductions and the trace, jobs 1 to n-1 each relog the
previous job's REDUCE events before messages go out, and recompute only
those downstream of a ``jobIndex``. Otherwise the flows recorded before the
first job are re-armed between jobs, so each job reduces them afresh. After
the last job the state stays fully reduced. A snapshot entry may be the
very dict of the element's job record of that iteration, so neither may be
mutated after the run.
"""

from __future__ import annotations

from .errors import CtxflowError, DependencyCycleError, HandlerError, KvSourceError
from .model import FlowRef, Record, WorkflowElement, toposort
from .reduction import read_attribute, reduce_all

PRE_GROUP = "preGroup"
ON_GROUP = "onGroup"
JOB_INDEX_KEY = "jobIndex"
FRAMEWORK_ORIGIN = "framework"


class DispatchMessage(Record):
    __slots__ = ("iteration", "task", "element", "handled")


class JobRecord(Record, defaults={"submitted": False}):
    """One configured job: an element's reduced attributes at an iteration."""

    __slots__ = ("iteration", "element", "attributes", "submitted")


class DispatchTrace(Record, defaults={"messages": list, "jobs": list, "manifest": list, "snapshots": dict}):
    """Everything a framework run produced, in order.

    `messages` records every message sent; `jobs` the records stored by
    makeJob; `manifest` the records submitted; `snapshots` the per-iteration
    reduced attributes of the application elements, keyed by job index.
    """

    __slots__ = ("messages", "jobs", "manifest", "snapshots")


class HandlerContext(Record):
    """What a handler sees when invoked for one (element, task) message."""

    __slots__ = ("state", "element", "task", "iteration", "args", "trace")


def dependency_order(state) -> list[WorkflowElement]:
    """Stable topological order of all elements.

    Elements appear after everything they depend on; among unordered
    elements, insertion order is preserved. Pattern dependencies match every
    attached element except the dependent itself. A cycle is reported in
    "depends on" order.
    """
    elements = state.elements
    sources = [[dep.name for dep in state.dependencies_of(el)] for el in elements.values()]
    order, cycle = toposort(list(elements), sources)
    if cycle is not None:
        raise DependencyCycleError(cycle)
    return [elements[name] for name in order]


def run_framework(state, n_jobs: int = 1, args: dict[str, str] | None = None) -> DispatchTrace:
    """Execute the framework schedule and return the dispatch trace:
    `run_pregroup`, as `reduce` does; the onGroup tasks (none when it is not
    defined) once per job, at iterations 0 to n_jobs-1; then every other
    group in definition order, at iteration n_jobs-1. Within a group, tasks
    run in list order; within a task, every element is messaged in
    dependency order. A handler failure aborts the run."""
    if not state.framework_groups:
        raise CtxflowError("no framework groups defined")
    args = dict(args or {})
    trace = run_pregroup(state, args)
    order = dependency_order(state)
    _run_on_group(state, state.framework_groups.get(ON_GROUP, ()), n_jobs, args, trace, order)
    for group, tasks in state.framework_groups.items():
        if group != PRE_GROUP and group != ON_GROUP:
            _dispatch_iteration(state, tasks, n_jobs - 1, args, trace, order)
    return trace


def run_pregroup(state, args: dict[str, str] | None = None) -> DispatchTrace:
    """The first step of `reduce` and `run`: the preGroup tasks, if any, after
    the dependency order, so that a dependency cycle raises either way."""
    trace = DispatchTrace()
    order = dependency_order(state)
    _dispatch_iteration(state, state.framework_groups.get(PRE_GROUP, ()), 0, dict(args or {}), trace, order)
    return trace


def _dispatch_iteration(state, tasks, iteration, args, trace, order) -> None:
    for task in tasks:
        for el in order:
            handler_name = el.handlers.get(task)
            handled = handler_name is not None
            if handled:
                handler = state.handler_library[handler_name]
                try:
                    handler(HandlerContext(state, el, task, iteration, args, trace))
                except Exception as exc:
                    raise HandlerError(el.name, task, exc) from exc
            trace.messages.append(DispatchMessage(iteration, task, el.name, handled))


def _run_on_group(state, tasks, n_jobs, args, trace, order) -> None:
    """The onGroup tasks once per job. A replayed job relogs the job before
    it and recomputes only the events downstream of a jobIndex."""
    # A jobIndex that a document, the workflow or a kv file wrote is
    # overwritten by the framework's, so job 0 records that as shadowing.
    for el in state.elements.values():
        if el.attr_origins.get(JOB_INDEX_KEY, FRAMEWORK_ORIGIN) != FRAMEWORK_ORIGIN:
            state.set_attribute(el, JOB_INDEX_KEY, "0", FRAMEWORK_ORIGIN)
    replay = n_jobs > 1 and _writes_only_reductions(state, tasks, order)
    flows = _snapshot_flows(state) if n_jobs > 1 and not replay else None
    plan = marked = None
    for iteration in range(n_jobs):
        # The framework rewrites its own jobIndex unrecorded: no history
        # entry, no SHADOW event.
        job_index = str(iteration)
        for el in state.elements.values():
            el.attributes[JOB_INDEX_KEY] = job_index
            el.attr_origins[JOB_INDEX_KEY] = FRAMEWORK_ORIGIN
        start, made = len(state.provenance), len(trace.jobs)
        if plan is not None:
            # Only configure_job, make_job and submit run here, and they write
            # nothing but reductions. preGroup ran before job 0, the other
            # groups run after the last job and args is fixed, so between jobs
            # only the jobIndex slots written above change.
            marked = _reached_by_job_index(state, plan) if marked is None else marked
            state.replay_reductions(plan, marked)
        _dispatch_iteration(state, tasks, iteration, args, trace, order)
        if plan is None:
            # Remaining flows reduce now so the iteration snapshot is
            # literal-only. A replayed job has none: its plan wrote every slot.
            reduce_all(state, args)
        if replay:
            # The next job replays the REDUCE events this one logged.
            plan = state.provenance[start:]
        trace.snapshots[iteration] = snapshot(state, trace.jobs[made:])
        if flows is not None and iteration < n_jobs - 1:
            # Re-arm the recorded flows, unlogged, for the next job.
            for el, key, ref, origin in flows:
                el.attributes[key] = ref
                el.attr_origins[key] = origin


def _reached_by_job_index(state, plan) -> list[int]:
    """The positions in `plan` of the events downstream of a jobIndex: each
    reads an element's jobIndex or the target of an event before it here."""
    reached, marked = {(name, JOB_INDEX_KEY) for name in state.elements}, []
    for position, event in enumerate(plan):
        if (event.source, event.source_attr) in reached:
            reached.add((event.element, event.attribute))
            marked.append(position)
    return marked


def snapshot(state, jobs: list[JobRecord] | tuple = ()) -> dict[str, dict[str, str]]:
    """The attributes of every application element, by name: the dict of the
    element's last record in `jobs` when it equals them, else a copy."""
    made = {job.element: job.attributes for job in jobs}
    return {el.name: attrs if (attrs := made.get(el.name)) == el.attributes else dict(el.attributes)
            for el in state.elements.values() if not el.is_terminal}


def _writes_only_reductions(state, tasks, order) -> bool:
    """True when every handler bound to one of `tasks` is, by identity,
    configure_job, make_job or submit: they write only through
    read_attribute and into the trace, so every job reduces the same flows
    in the same order. A re-registered or wrapped handler does not count."""
    library = state.handler_library
    for el in order:
        for task in tasks:
            name = el.handlers.get(task)
            if name is not None:
                handler = library[name]
                if handler is not configure_job and handler is not make_job and handler is not submit:
                    return False
    return True


def _snapshot_flows(state) -> list[tuple[WorkflowElement, str, FlowRef, str | None]]:
    return [
        (el, key, value, el.attr_origins.get(key))
        for el in state.elements.values()
        for key, value in el.attributes.items()
        if isinstance(value, FlowRef)
    ]


# -- built-in handler library ----------------------------------------------


def connect_to_database(ctx: HandlerContext) -> None:
    """Load the element's backing key/value sources into its attributes."""
    el = ctx.element
    matched = ctx.state.kv_sources_for(el.description)
    if not matched:
        raise KvSourceError(f"no kv source registered for element {el.name} ({el.description})")
    for source in matched:
        origin = source.origin()
        for key, value in source.load().items():
            ctx.state.set_attribute(el, key, value, origin=origin)


def configure_job(ctx: HandlerContext) -> None:
    """Eagerly reduce every flow targeting this element."""
    el = ctx.element
    if FlowRef not in map(type, el.attributes.values()):
        return
    for key in [k for k, v in el.attributes.items() if isinstance(v, FlowRef)]:
        read_attribute(ctx.state, el, key, ctx.args)


def make_job(ctx: HandlerContext) -> None:
    """Store a job record of this element's reduced attributes."""
    ctx.trace.jobs.append(_job_record(ctx))


def submit(ctx: HandlerContext) -> None:
    """Submit every stored job not yet submitted, whatever its iteration;
    with none pending, submit a record built from the handling element."""
    # Each submit takes every pending job, so they are the unsubmitted tail.
    jobs = ctx.trace.jobs
    first = len(jobs)
    while first and not jobs[first - 1].submitted:
        first -= 1
    pending = jobs[first:]
    if not pending:
        record = _job_record(ctx)
        record.submitted = True
        ctx.trace.manifest.append(record)
        return
    for job in pending:
        job.submitted = True
        ctx.trace.manifest.append(job)


def _job_record(ctx: HandlerContext) -> JobRecord:
    configure_job(ctx)
    return JobRecord(ctx.iteration, ctx.element.name, dict(ctx.element.attributes))


def builtin_handlers() -> dict:
    return {
        "connectToDatabase": connect_to_database,
        "configureJob": configure_job,
        "makeJob": make_job,
        "submit": submit,
    }
