"""Lazy, trigger-based reduction of metadata flows.

Reading an attribute resolves its flow on first access: the source value is
copied in, the FlowRef is replaced by the literal (removing exactly one
arrow), and a REDUCE event is appended to the provenance log. The metadata
flow subgraph must be acyclic for a reduction order to exist; cycles are an
error, not a value. Each flow's source comes from `Linker.source_of`; an
``@args`` flow reads its ``--arg`` binding instead.

Resolution is iterative rather than recursive so long reference chains do
not hit the interpreter recursion limit.
"""

from __future__ import annotations

from .errors import CheckFailedError, CycleError, MissingArgError, MissingAttributeError, UnresolvedSourceError
from .model import ARGS_SOURCE, FlowRef, WorkflowElement, toposort


def _arg(args: dict[str, str] | None, key: str) -> str:
    if args is None or key not in args:
        raise MissingArgError(key)
    return args[key]


def read_attribute(state, element, key: str, args: dict[str, str] | None = None) -> str:
    """Return the attribute value, reducing its flow chain on first access.

    Each flow satisfied along the way removes exactly one arrow and logs one
    REDUCE event; subsequent reads hit the stored literal.
    """
    start = state.require_element(element)
    current = start.attributes.get(key)
    if current is None:
        raise MissingAttributeError(start.name, key)
    if isinstance(current, str):
        return current
    # Walk down the chain to its first literal (or @args binding), then
    # store that value into every slot on the way back up.
    stack: list[tuple[WorkflowElement, str, FlowRef]] = [(start, key, current)]
    on_path = {(start.name, key)}
    while True:
        node, attr, ref = stack[-1]
        source = state.source_of(node, ref)
        if source is None:
            value = _arg(args, ref.attr)
            source_name = ARGS_SOURCE
            break
        slot = (source.name, ref.attr)
        if slot in on_path:
            path = [f"{e.name}.{a}" for e, a, _ in stack] + [f"{slot[0]}.{slot[1]}"]
            raise CycleError(path)
        value = source.attributes.get(ref.attr)
        if value is None:
            raise MissingAttributeError(source.name, ref.attr)
        if isinstance(value, str):
            source_name = source.name
            break
        stack.append((source, ref.attr, value))
        on_path.add(slot)
    source_attr = ref.attr
    for node, attr, _ in reversed(stack):
        state.store_reduced(node, attr, value, source_name, source_attr)
        source_name, source_attr = node.name, attr
    return value


def check_acyclic(state) -> list[tuple[str, str]]:
    """Return one valid reduction order over the flow slots.

    The order is a topological sort of the metadata flow subgraph at
    (element, attribute) granularity; ties break by element insertion order,
    then attribute name. Raises CycleError, with the path in "reads from"
    order, when no order exists; a slot that reads itself is a cycle of one.
    Otherwise raises the first UnresolvedSourceError, if a source does not
    resolve, so that an input that has both faults is reported as a cycle.
    """
    slots: list[tuple[str, str]] = []
    sources: list[tuple] = []
    unresolved = None
    for el in state.elements.values():
        attributes = el.attributes
        for key in sorted([k for k, v in attributes.items() if isinstance(v, FlowRef)]):
            slots.append((el.name, key))
            ref = attributes[key]
            try:
                source = state.source_of(el, ref)
            except UnresolvedSourceError as exc:
                unresolved = unresolved or exc
                source = None
            sources.append(() if source is None else ((source.name, ref.attr),))
    order, cycle = toposort(slots, sources)
    if cycle is not None:
        raise CycleError([f"{name}.{attr}" for name, attr in cycle])
    if unresolved is not None:
        raise unresolved
    return order


def reduce_all(state, args: dict[str, str] | None = None) -> None:
    """Reduce every flow, eagerly, in a valid serialization order.

    Afterwards every attribute is a literal and the provenance log carries
    one REDUCE event per flow that existed. A no-op on a reduced state.
    """
    for name, key in check_acyclic(state):
        el = state.elements[name]
        if isinstance(el.attributes.get(key), FlowRef):
            read_attribute(state, el, key, args)


def eval_checks(state, args: dict[str, str] | None = None) -> None:
    """Evaluate every registered equality check; failure raises, success is
    silent. Both sides read through the normal reduction path."""
    for check in list(state.checks):
        target = state.elements[check.element]
        actual = read_attribute(state, target, check.key, args)
        expected = check.value
        if isinstance(expected, FlowRef):
            source, attr = state.source_of(target, expected), expected.attr
            expected = _arg(args, attr) if source is None else read_attribute(state, source, attr, args)
        if actual != expected:
            raise CheckFailedError(f"{check.element}.{check.key}", expected, actual)
