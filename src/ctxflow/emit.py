"""Emitters: canonical macro, DAG description, shell scripts, provenance,
and the submission manifest. Each emitter's output depends on its inputs
alone and is byte-stable across runs. The outputs of a run stream:
`emit_provenance` and `emit_manifest` yield one line at a time, and
`emit_shell` checks every script first and then yields one script at a
time, so a writer never holds a log or the scripts whole. `emit_macro` and
`emit_dag` return their whole text."""

from __future__ import annotations

import shlex
from collections.abc import Iterator

from . import macro
from .errors import CtxflowError, NotReducedError
from .framework import DispatchTrace, dependency_order
from .model import ReductionEvent


def emit_macro(state) -> str:
    """The state as a canonical macro document, `Linker.to_statements`:
    unreduced flows render as ``::`` references, reduced attributes as
    literals, a terminal as ``attach NAME terminal``. Replayed with the same
    kv sources and ``@args`` bindings, it reduces to the same literals."""
    return macro.serialize(state.to_statements())


def emit_dag(state) -> str:
    """A DAG description of the application elements.

    One ``JOB <name> <name>.sub`` line per application element in dependency
    order, then one ``PARENT <a> CHILD <b>`` line per sequencing arrow.
    Terminals are excluded; they carry metadata, not work.
    """
    applications = [el for el in dependency_order(state) if not el.is_terminal]
    lines = [f"JOB {el.name} {el.name}.sub" for el in applications]
    for el in applications:
        lines.extend(f"PARENT {dep.name} CHILD {el.name}" for dep in state.dependencies_of(el) if not dep.is_terminal)
    return "".join(line + "\n" for line in lines)


def emit_shell(state, trace: DispatchTrace) -> Iterator[tuple[str, str]]:
    """One shell script per application element per job iteration.

    Scripts are named ``<jobIndex>_<element>.sh`` and contain one
    ``export KEY=VALUE`` line per attribute (sorted by key) followed by a
    placeholder ``echo run <element>``. Values and the element name are
    quoted for ``sh``. A key that is not a shell name, a value with NUL or a
    name with ``/``, NUL or ``\\`` is an error, raised before this returns
    an iterator that builds each (name, text) pair only when asked for it.
    Requires a fully reduced state.
    """
    flows = state.flow_count()
    if flows:
        raise NotReducedError(f"{flows} flows remain; reduce before emitting scripts")
    applications = [el for el in dependency_order(state) if not el.is_terminal]
    quoted: dict[str, str] = {}
    for _, name, attrs, layout in _script_layouts(applications, trace.snapshots):
        for key in layout[1]:
            value = attrs[key]
            if value not in quoted:
                if "\0" in value:
                    raise CtxflowError(f"attribute {name}.{key}: a NUL byte cannot pass through sh")
                quoted[value] = shlex.quote(value)
    return (
        (f"{iteration}_{name}.sh",
         "".join(["#!/bin/sh\n", *[f"export {key}={quoted[attrs[key]]}\n" for key in layout[1]], layout[2]]))
        for iteration, name, attrs, layout in _script_layouts(applications, trace.snapshots)
    )


def _script_layouts(applications, snapshots) -> Iterator[tuple]:
    """Per script: its iteration, element name, attributes, and a layout
    checked for their key set: that key set, its keys sorted, and the
    closing line."""
    layouts: dict[str, tuple] = {}
    for iteration in sorted(snapshots):
        snapshot = snapshots[iteration]
        for el in applications:
            attrs = snapshot.get(el.name, {})
            layout = layouts.get(el.name)
            if layout is None or layout[0] != attrs.keys():
                layout = layouts[el.name] = _script_layout(el.name, attrs)
            yield iteration, el.name, attrs, layout


def _script_layout(name: str, attrs: dict[str, str]) -> tuple:
    if "/" in name or "\0" in name:
        raise CtxflowError(f"element {name!r}: not a file name, cannot write its script")
    if "\\" in name:
        raise CtxflowError(f"element {name!r}: echo would not print a backslash as written, cannot write its script")
    keys = sorted(attrs)
    for key in keys:
        # An ASCII identifier is exactly a shell variable name.
        if not (key.isascii() and key.isidentifier()):
            raise CtxflowError(f"attribute {name}.{key}: not a shell variable name, cannot export it")
    return attrs.keys(), keys, f"echo run {shlex.quote(name)}\n"


def emit_provenance(state) -> Iterator[str]:
    """Yield one line per provenance event, in log order, formatting each
    line as it is asked for."""
    reduce = ReductionEvent.REDUCE
    for event in state.provenance:
        yield (
            f"REDUCE {event.element}.{event.attribute} <- {event.source}.{event.source_attr}"
            f" = {event.value} ctx={event.doc}\n"
            if event.kind == reduce
            else f"SHADOW {event.element}.{event.attribute} {event.old_doc} -> {event.new_doc}\n"
        )


def emit_manifest(trace: DispatchTrace) -> Iterator[str]:
    """Yield one line per submitted job record."""
    for job in trace.manifest:
        attrs = ",".join([f"{key}={job.attributes[key]}" for key in sorted(job.attributes)])
        yield f"JOB {job.iteration} {job.element} {attrs}\n"
