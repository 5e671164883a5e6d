"""Emitters: canonical macro, DAG description, shell scripts, provenance,
and the submission manifest. Each emitter's output depends on its inputs
alone and is byte-stable across runs. `emit_provenance` and `emit_manifest`,
the largest outputs of a run, are generators: they yield one line at a time
as the caller iterates, so a writer never holds either log whole. The others
return their whole text."""

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


def emit_shell(state, trace: DispatchTrace) -> list[tuple[str, str]]:
    """One shell script per application element per job iteration.

    Scripts are named ``<jobIndex>_<element>.sh`` and contain one
    ``export KEY=VALUE`` line per attribute (sorted by key) followed by a
    placeholder ``echo run <element>``. Values and the element name are
    quoted for ``sh``. A key that is not a shell name, a value with NUL or a
    name with ``/``, NUL or ``\\`` is an error. Requires a fully reduced state.
    """
    flows = state.flow_count()
    if flows:
        raise NotReducedError(f"{flows} flows remain; reduce before emitting scripts")
    applications = [el for el in dependency_order(state) if not el.is_terminal]
    quoted: dict[str, str] = {}
    # Per element: the key set its layout was checked for, then the sorted
    # keys with their "export KEY=" prefixes, then the closing line.
    layouts: dict[str, tuple] = {}
    scripts: list[tuple[str, str]] = []
    for iteration in sorted(trace.snapshots):
        snapshot = trace.snapshots[iteration]
        for el in applications:
            attrs = snapshot.get(el.name, {})
            layout = layouts.get(el.name)
            if layout is None or layout[0] != attrs.keys():
                layout = layouts[el.name] = _script_layout(el.name, attrs)
            lines = ["#!/bin/sh\n"]
            for key, prefix in layout[1]:
                value = attrs[key]
                text = quoted.get(value)
                if text is None:
                    if "\0" in value:
                        raise CtxflowError(f"attribute {el.name}.{key}: a NUL byte cannot pass through sh")
                    text = quoted[value] = shlex.quote(value)
                lines.append(f"{prefix}{text}\n")
            lines.append(layout[2])
            scripts.append((f"{iteration}_{el.name}.sh", "".join(lines)))
    return scripts


def _script_layout(name: str, attrs: dict[str, str]) -> tuple:
    if "/" in name or "\0" in name:
        raise CtxflowError(f"element {name!r}: not a file name, cannot write its script")
    if "\\" in name:
        raise CtxflowError(f"element {name!r}: echo would not print a backslash as written, cannot write its script")
    exports = []
    for key in sorted(attrs):
        # An ASCII identifier is exactly a shell variable name.
        if not (key.isascii() and key.isidentifier()):
            raise CtxflowError(f"attribute {name}.{key}: not a shell variable name, cannot export it")
        exports.append((key, f"export {key}="))
    return attrs.keys(), exports, f"echo run {shlex.quote(name)}\n"


def emit_provenance(state) -> Iterator[str]:
    """Yield one line per provenance event, in log order. An event object
    that the log holds more than once is formatted once."""
    reduce = ReductionEvent.REDUCE
    formatted: dict[int, str] = {}
    for event in state.provenance:
        line = formatted.get(id(event))
        if line is None:
            line = formatted[id(event)] = (
                f"REDUCE {event.element}.{event.attribute} <- {event.source}.{event.source_attr}"
                f" = {event.value} ctx={event.doc}\n"
                if event.kind == reduce
                else f"SHADOW {event.element}.{event.attribute} {event.old_doc} -> {event.new_doc}\n"
            )
        yield line


def emit_manifest(trace: DispatchTrace) -> Iterator[str]:
    """Yield one line per submitted job record."""
    for job in trace.manifest:
        attrs = ",".join([f"{key}={job.attributes[key]}" for key in sorted(job.attributes)])
        yield f"JOB {job.iteration} {job.element} {attrs}\n"
