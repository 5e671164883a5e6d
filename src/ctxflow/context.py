"""Context engine: loading documents and applying element statements.

A context document carries top-level statements executed exactly once at
load (terminal attaches, framework group definitions, alias registrations)
and blocks applied to every matching element, both already attached and
attached later. Directive applications are keyed by (document, block,
directive) so re-application is a no-op; across documents, the one loaded
last wins any write to the same target, and the overwrite is recorded as
shadowing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import macro
from .errors import AmbiguousAliasError, UnresolvedAliasError
from .model import Description, WorkflowElement, WILDCARD

if TYPE_CHECKING:
    from .linker import Linker


@dataclass
class RegisteredBlock:
    doc_id: str
    index: int
    block: macro.ContextBlockAst


def load_context(state: Linker, doc: macro.ContextDocumentAst) -> None:
    """Load one context document.

    Items execute in source order. Blocks are registered for for-each
    application and immediately retro-matched against already attached
    elements, so load-then-attach and attach-then-load agree for
    non-colliding documents.
    """
    block_index = 0
    for item in doc.items:
        if isinstance(item, macro.ContextBlockAst):
            registered = RegisteredBlock(doc.id, block_index, item)
            block_index += 1
            _register_block(state, registered)
            for element in state.match(item.header):
                _apply_block(state, element, registered)
            continue
        match item:
            case macro.Attach(name):
                state.attach_element(name, Description({"Database": name}), is_terminal=True)
            case macro.FrameworkDefine(group, tasks):
                state.framework_groups[group] = list(tasks)
            case macro.NamespaceAdd(alias, pattern, _):
                state.add_alias(alias, pattern)
            case _:
                raise TypeError(f"not a context top-level statement: {item!r}")
    state.loaded_contexts.append(doc.id)


def apply_blocks(state: Linker, element: WorkflowElement) -> None:
    """Apply every matching block of every loaded document, in load order.

    Idempotent per (document, element): directives already applied to this
    element are skipped.
    """
    for registered in matching_blocks(state, element.description):
        _apply_block(state, element, registered)


def matching_blocks(state: Linker, description: Description) -> list[RegisteredBlock]:
    """The registered blocks whose header matches `description`, in
    registration order."""
    candidates = [state._blocks[position] for position in state._block_index.candidates(description)]
    return [registered for registered in candidates if registered.block.header.matches(description)]


def _register_block(state: Linker, registered: RegisteredBlock) -> None:
    # Every description the header matches carries each header key, so one
    # key files the block for all of them; a key with concrete values is
    # the more selective choice.
    entries = registered.block.header.entries
    key = next((k for k, values in entries.items() if WILDCARD not in values), next(iter(entries)))
    if WILDCARD in entries[key]:
        state._block_index.add(len(state._blocks), keys=[key])
    else:
        state._block_index.add(len(state._blocks), [(key, value) for value in entries[key]])
    state._blocks.append(registered)


def _apply_block(state: Linker, element: WorkflowElement, registered: RegisteredBlock) -> None:
    for position, directive in enumerate(registered.block.body):
        key = (registered.doc_id, registered.index, position)
        if key in element.applied_directives:
            continue
        element.applied_directives.add(key)
        apply_statement(state, element, directive, registered.doc_id)


def apply_statement(state: Linker, element: WorkflowElement, statement, origin: str) -> None:
    """Apply one element statement to `element`: a workflow statement, with
    origin ``workflow``, or a block directive, with its document's id. The
    statement acts on the element given, never on its name."""
    match statement:
        case macro.Define(_, key, value):
            state.set_attribute(element, key, value, origin)
        case macro.AddDep(_, target) | macro.AddDependencyPattern(_, target):
            state.add_dependency(element, target)
        case macro.Oncall(_, task, handler):
            state.register_handler(element, task, handler)
        case macro.NamespaceAdd(alias, pattern, _):
            state.add_alias(alias, pattern, element)
        case macro.Check(_, key, value):
            state.add_check(element, key, value)
        case _:
            raise TypeError(f"not an element statement: {statement!r}")


def resolve_alias(state: Linker, name: str) -> str:
    """Resolve a name through the alias table.

    An alias resolves to the unique attached element matching its pattern;
    a non-alias name is returned unchanged.
    """
    pattern = state.aliases.get(name)
    if pattern is None:
        return name
    matches = [el.name for el in state.match(pattern)]
    if not matches:
        raise UnresolvedAliasError(f"alias {name}: pattern {pattern.canonical()} matches no attached element")
    if len(matches) > 1:
        raise AmbiguousAliasError(f"alias {name}: pattern {pattern.canonical()} matches {matches}")
    return matches[0]


def attach_aliased(state: Linker, name: str) -> WorkflowElement:
    """Attach an element by its workflow name, consulting aliases first.

    An aliased name creates the element under the alias pattern's concrete
    value, with the pattern merged into the default description; a plain name
    creates an application node named as given.
    """
    pattern = state.aliases.get(name)
    if pattern is None:
        return state.attach_element(name)
    concrete = pattern.single_value()
    if concrete is None:
        raise UnresolvedAliasError(
            f"alias {name}: pattern {pattern.canonical()} has no single concrete value to name an element"
        )
    # single_value() means one key with one concrete value.
    key = next(iter(pattern.entries))
    return state.attach_element(concrete, Description({"Application": concrete, key: concrete}))
