"""The Linker: mutable workflow state constrained by contexts.

A Linker holds workflow elements in insertion order, the framework group
definitions, namespace aliases, pending equality checks, the provenance log,
and the statement log: every statement that shaped the state, in the order
the state saw it, from which `to_statements` replays the state. The state is
fully reduced once no attribute holds a FlowRef.

It is also the context engine. A context document carries top-level
statements executed exactly once at load (terminal attaches, framework group
definitions, alias registrations) and blocks applied to every matching
element, both already attached and attached later. Directive applications
are keyed by (document, block registration position, directive), so each
load of a document applies once and re-application is a no-op; across
documents, the one loaded last wins any write to the same target, and the
overwrite is recorded as shadowing. Every statement but ``attach`` and every
block directive reach the state through one interpreter, `apply_statement`,
and every flow finds its source through one query, `source_of`. A name is
an attached element's own before it is an alias (`resolve_alias`), as the
macro that `to_statements` prints assumes. ``@args`` names the ``--arg``
bindings, and a macro line starting with a keyword or ``#`` reads as no
element statement, so no element may take such a name.

Single-writer contract: one logical thread mutates a Linker at a time; a
fully reduced state is safe to share read-only.
"""

from __future__ import annotations

from . import framework, macro
from .errors import (
    AmbiguousAliasError,
    CtxflowError,
    DuplicateElementError,
    UnknownElementError,
    UnknownHandlerError,
    UnresolvedAliasError,
    UnresolvedSourceError,
)
from .model import (
    ARGS_SOURCE,
    WILDCARD,
    WORKFLOW_ORIGIN,
    Description,
    DescriptionIndex,
    FlowRef,
    HeaderPattern,
    ReductionEvent,
    WorkflowElement,
)

# A registered block: (document id, registration position, block AST).
Block = tuple[str, int, macro.ContextBlockAst]


class Linker:
    def __init__(self):
        self.elements: dict[str, WorkflowElement] = {}
        self.framework_groups: dict[str, list[str]] = {}
        self.aliases: dict[str, HeaderPattern] = {}
        self.loaded_contexts: list[str] = []
        self.checks: list[macro.Check] = []
        self.provenance: list[ReductionEvent] = []
        self.kv_sources: list = []
        self.handler_library: dict = framework.builtin_handlers()
        # Statements in the order they shaped the state. A define or an oncall
        # is kept as ("define", element, key) or ("oncall", element, task),
        # its value read at replay.
        self.log: list = []
        # Blocks, kv sources and attached elements are each filed in a
        # DescriptionIndex by their position in the list that holds them.
        self._blocks: list[Block] = []
        self._block_index = DescriptionIndex()
        self._kv_index = DescriptionIndex()
        # Every element ever attached, in attach order, filed under each pair
        # and key of its description. Descriptions never change after attach,
        # so attach_element is the only writer.
        self._attached: list[WorkflowElement] = []
        self._element_index = DescriptionIndex()

    # -- element access ----------------------------------------------------

    def require_element(self, element: str | WorkflowElement) -> WorkflowElement:
        """Look up an element by name, through `resolve_alias`."""
        if isinstance(element, WorkflowElement):
            return element
        name = self.resolve_alias(element)
        found = self.elements.get(name)
        if found is None:
            raise UnknownElementError(element)
        return found

    def resolve_alias(self, name: str) -> str:
        """Resolve a name: an attached element's own name first, then an alias.

        An attached element's name, or a name that is no alias, is returned
        unchanged; an alias resolves to the unique attached element matching
        its pattern.
        """
        pattern = self.aliases.get(name)
        if pattern is None or name in self.elements:
            return name
        matches = [el.name for el in self.match(pattern)]
        if not matches:
            raise UnresolvedAliasError(f"alias {name}: pattern {pattern.canonical()} matches no attached element")
        if len(matches) > 1:
            names = ", ".join(matches)
            raise AmbiguousAliasError(f"alias {name}: pattern {pattern.canonical()} matches several elements: {names}")
        return matches[0]

    def dependencies_of(self, el: WorkflowElement) -> list[WorkflowElement]:
        """The attached elements `el` depends on, each once, dependency by
        dependency. A name dependency gives its element; a pattern dependency
        gives every element it matches except `el`."""
        found: list[WorkflowElement] = []
        seen: set[str] = set()
        for dep in el.dependencies:
            if isinstance(dep, str):
                candidates = [self.elements[dep]] if dep in self.elements else []
            else:
                candidates = [c for c in self.match(dep) if c is not el]
            for c in candidates:
                if c.name not in seen:
                    seen.add(c.name)
                    found.append(c)
        return found

    def source_of(self, target: WorkflowElement, ref: FlowRef) -> WorkflowElement | None:
        """The element the flow `ref` on `target` reads from, or None for an
        ``@args`` flow. The first step that finds one wins: an element name,
        then an alias, both through `resolve_alias`; then the one element of
        `dependencies_of(target)` whose description has the name as a key."""
        name = ref.source
        if name == ARGS_SOURCE:
            return None
        try:
            direct = self.elements.get(self.resolve_alias(name))
        except (UnresolvedAliasError, AmbiguousAliasError) as exc:
            raise UnresolvedSourceError(f"flow source {name} in {ref}: {exc}") from exc
        if direct is not None:
            return direct
        candidates = [el for el in self.dependencies_of(target) if name in el.description.entries]
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            names = ", ".join(el.name for el in candidates)
            raise UnresolvedSourceError(f"flow source {name} in {ref} is ambiguous among dependencies: {names}")
        raise UnresolvedSourceError(f"flow source {name} in {ref} matches no attached element")

    def match(self, pattern: HeaderPattern) -> list[WorkflowElement]:
        """The attached elements whose description `pattern` matches, in
        insertion order. Reads through `elements`, so an element removed
        from it is not returned."""
        found = []
        for position in self._element_index.matching(pattern):
            el = self._attached[position]
            if self.elements.get(el.name) is el:
                found.append(el)
        return found

    # -- construction ------------------------------------------------------

    def attach_element(
        self,
        name: str,
        description: Description | None = None,
        is_terminal: bool = False,
    ) -> WorkflowElement:
        """Attach a new element and apply every loaded context block to it.

        Bare application nodes get the default description
        ``{Application: name}``; bare terminals get ``{Database: name}``.
        """
        if name in self.elements:
            raise DuplicateElementError(name)
        if name == ARGS_SOURCE:
            raise CtxflowError(f"element name {ARGS_SOURCE} is reserved for --arg bindings")
        if name in macro.KEYWORDS or name.startswith("#"):
            raise CtxflowError(f"element name {name}: a macro line cannot start with a keyword or #")
        if description is None:
            key = "Database" if is_terminal else "Application"
            description = Description({key: name})
        element = WorkflowElement(name=name, description=description, is_terminal=is_terminal)
        self.elements[name] = element
        self._element_index.add(len(self._attached), description.entries.items(), description.entries)
        self._attached.append(element)
        self.log.append(macro.Attach(name, is_terminal))
        self.apply_blocks(element)
        return element

    def attach(self, name: str) -> WorkflowElement:
        """Attach an element as a workflow ``attach`` statement does, aliases first.

        An aliased name creates the element under the alias pattern's concrete
        value, with the pattern merged into the default description, and is
        logged as given: the log replays in order, where the alias holds the
        same pattern. A plain name creates an application node so named.
        """
        pattern = self.aliases.get(name)
        if pattern is None:
            return self.attach_element(name)
        concrete = pattern.single_value()
        if concrete is None:
            raise UnresolvedAliasError(
                f"alias {name}: pattern {pattern.canonical()} has no single concrete value to name an element"
            )
        # single_value() means one key with one concrete value.
        key = next(iter(pattern.entries))
        at = len(self.log)
        element = self.attach_element(concrete, Description({"Application": concrete, key: concrete}))
        self.log[at] = macro.Attach(name)
        return element

    def set_attribute(
        self,
        element: str | WorkflowElement,
        key: str,
        value: str | FlowRef,
        origin: str = WORKFLOW_ORIGIN,
    ) -> None:
        """Store an attribute value.

        At most one FlowRef exists per attribute: writing over one replaces
        it. Overwrites are logged as shadowing unless value and origin both
        repeat (an idempotent re-write).
        """
        el = self.require_element(element)
        had = key in el.attributes
        old = el.attributes.get(key)
        old_origin = el.attr_origins.get(key)
        if had and not (old == value and old_origin == origin):
            self._log_shadow(el, key, old, old_origin, value, origin)
        el.attributes[key] = value
        el.attr_origins[key] = origin
        if not had:
            self.log.append(("define", el, key))

    def replay_reductions(self, plan: list[ReductionEvent], args: dict[str, str]) -> None:
        """Reduce once more, as between framework jobs, along `plan`: the
        REDUCE events the previous job logged. Each was logged only once its
        source held a literal, so they are in topological order. Copy each
        source's current value (or its @args binding) into the target slot
        and log the event again: the same object when the value did not
        change, a new one when it did. The targets already hold literals, so
        no flow is re-armed."""
        elements = self.elements
        log = self.provenance.append
        for event in plan:
            source, attr = event.source, event.source_attr
            value = args[attr] if source == ARGS_SOURCE else elements[source].attributes[attr]
            elements[event.element].attributes[event.attribute] = value
            if value != event.value:
                event = ReductionEvent(event.kind, event.element, event.attribute, source, attr, value, event.doc)
            log(event)

    def add_dependency(self, element: str | WorkflowElement, target: str | HeaderPattern) -> None:
        """Append a dependency; duplicates are ignored.

        Name targets resolve through aliases and must exist. Pattern targets
        are matched lazily at ordering time, and additionally register the
        pattern's value as a namespace alias so flows can reference matching
        elements by description.
        """
        el = self.require_element(element)
        if isinstance(target, str):
            target = self.require_element(target).name
        if target in el.dependencies:
            return
        el.dependencies.append(target)
        if isinstance(target, str):
            self.log.append(macro.AddDep(el.name, target))
        else:
            # Replaying this statement registers the alias again, so the
            # alias is not logged on its own.
            self.log.append(macro.AddDependencyPattern(el.name, target))
            alias = target.single_value()
            if alias is not None:
                self.add_alias(alias, target)

    def add_alias(self, alias: str, pattern: HeaderPattern) -> None:
        """Register a namespace alias, the only writer of `aliases`."""
        self.aliases[alias] = pattern

    def register_handler(self, element: str | WorkflowElement, task: str, handler_name: str) -> None:
        """Bind a library handler to a framework task; rebinding replaces."""
        el = self.require_element(element)
        if handler_name not in self.handler_library:
            raise UnknownHandlerError(handler_name)
        rebind = task in el.handlers
        el.handlers[task] = handler_name
        if not rebind:
            self.log.append(("oncall", el, task))

    def add_check(self, element: str | WorkflowElement, key: str, expected: str | FlowRef) -> None:
        el = self.require_element(element)
        check = macro.Check(el.name, key, expected)
        self.checks.append(check)
        self.log.append(check)

    def add_kv_source(self, source) -> None:
        # A source serves descriptions that hold all of its pairs, so filing
        # it under one pair finds it for every such description.
        first_pair = list(source.description.entries.items())[:1]
        self._kv_index.add(len(self.kv_sources), first_pair)
        self.kv_sources.append(source)

    def kv_sources_for(self, description: Description) -> list:
        """The kv sources whose description `description` contains, in
        registration order."""
        candidates = [self.kv_sources[p] for p in self._kv_index.candidates(description)]
        return [source for source in candidates if source.description.subsumes(description)]

    def matching_blocks(self, description: Description) -> list[Block]:
        """The registered blocks whose header matches `description`, in
        registration order."""
        candidates = [self._blocks[position] for position in self._block_index.candidates(description)]
        return [(doc_id, index, ast) for doc_id, index, ast in candidates if ast.header.matches(description)]

    # -- context engine ----------------------------------------------------

    def load_context(self, doc: macro.ContextDocumentAst) -> None:
        """Load one context document.

        Items execute in source order. Blocks are registered for for-each
        application and immediately retro-matched against already attached
        elements, so load-then-attach and attach-then-load agree for
        non-colliding documents. An ``attach`` attaches a terminal; every
        other statement goes to `apply_statement` with the document's id.
        """
        for item in doc.items:
            if isinstance(item, macro.ContextBlockAst):
                block = (doc.id, len(self._blocks), item)
                self._register_block(block)
                for element in self.match(item.header):
                    self._apply_block(element, block)
            elif isinstance(item, macro.Attach):
                self.attach_element(item.name, is_terminal=True)
            else:
                self.apply_statement(None, item, doc.id)
        self.loaded_contexts.append(doc.id)

    def apply_blocks(self, element: str | WorkflowElement) -> None:
        """Apply every matching block of every loaded document, in load order.

        Idempotent per (block, element): directives already applied to this
        element are skipped.
        """
        el = self.require_element(element)
        for block in self.matching_blocks(el.description):
            self._apply_block(el, block)

    def _register_block(self, block: Block) -> None:
        # Every description the header matches carries each header key, so one
        # key files the block for all of them; a key with concrete values is
        # the more selective choice.
        _, _, ast = block
        entries = ast.header.entries
        key = next((k for k, values in entries.items() if WILDCARD not in values), next(iter(entries)))
        if WILDCARD in entries[key]:
            self._block_index.add(len(self._blocks), keys=[key])
        else:
            self._block_index.add(len(self._blocks), [(key, value) for value in entries[key]])
        self._blocks.append(block)

    def _apply_block(self, element: WorkflowElement, block: Block) -> None:
        doc_id, index, ast = block
        for position, directive in enumerate(ast.body):
            # `index` alone tells blocks apart; a key without `doc_id` read about
            # 0.1 MB more peak RSS on the benchmark's reduce_catalog (Python 3.11).
            key = (doc_id, index, position)
            if key in element.applied_directives:
                continue
            element.applied_directives.add(key)
            self.apply_statement(element, directive, doc_id)

    def apply_statement(self, element: WorkflowElement | None, statement, origin: str) -> None:
        """Apply one statement other than ``attach``, with origin ``workflow``
        or the id of the document it came from. An element statement or a
        block directive acts on `element`, never on its name; a top-level
        statement is given no element."""
        match statement:
            case macro.Define(_, key, value):
                self.set_attribute(element, key, value, origin)
            case macro.AddDep(_, target) | macro.AddDependencyPattern(_, target):
                self.add_dependency(element, target)
            case macro.Oncall(_, task, handler):
                self.register_handler(element, task, handler)
            case macro.NamespaceAdd(alias, pattern, _):
                self.add_alias(alias, pattern)
                self.log.append(statement if element is None else macro.NamespaceAdd(alias, pattern, element.name))
            case macro.Check(_, key, value):
                self.add_check(element, key, value)
            case macro.FrameworkDefine(group, tasks):
                self.framework_groups[group] = list(tasks)
                self.log.append(statement)
            case macro.FrameworkRun():
                self.log.append(statement)
            case _:
                raise TypeError(f"not a statement: {statement!r}")

    def detect_collisions(self) -> list[ReductionEvent]:
        """The SHADOW events of the provenance log, in log order: one per
        write that overwrote an earlier write to the same attribute."""
        return [event for event in self.provenance if event.kind == ReductionEvent.SHADOW]

    # -- queries -----------------------------------------------------------

    def flow_count(self) -> int:
        """Number of unreduced metadata flows across all elements."""
        return sum(isinstance(v, FlowRef) for el in self.elements.values() for v in el.attributes.values())

    def metadata_subgraph(self) -> list[tuple[str, str]]:
        """One (source element, target element) edge per flow; ``@args``
        sources map to the synthetic ``@args`` node."""
        edges: list[tuple[str, str]] = []
        for el in self.elements.values():
            for value in el.attributes.values():
                if isinstance(value, FlowRef):
                    source = self.source_of(el, value)
                    edges.append((ARGS_SOURCE if source is None else source.name, el.name))
        return edges

    # -- statement interpreter ----------------------------------------------

    def run_statements(self, statements) -> None:
        """Execute parsed workflow statements against this state.

        An ``attach`` goes through `attach`, an ``attach NAME terminal``
        through `attach_element`. Every other statement goes to
        `apply_statement` with origin ``workflow``: an element statement with
        its element, looked up once by `require_element`, a top-level one
        with none. ``framework run`` is only logged; dispatching messages
        is an explicit, separate step (see framework.run_framework).
        """
        for statement in statements:
            # Element statements, the ones naming an element, are most of a
            # workflow, so they go first.
            element = getattr(statement, "element", None)
            if element is not None:
                self.apply_statement(self.require_element(element), statement, WORKFLOW_ORIGIN)
            elif isinstance(statement, macro.Attach):
                if statement.is_terminal:
                    self.attach_element(statement.name, is_terminal=True)
                else:
                    self.attach(statement.name)
            else:
                self.apply_statement(None, statement, WORKFLOW_ORIGIN)

    # -- serialization -----------------------------------------------------

    def to_statements(self) -> list:
        """Replay the state as macro statements: `log` in order, each define
        or oncall with its current value. An ``adddep`` needs its target
        attached, so it always follows that target's ``attach``."""
        statements: list = []
        for entry in self.log:
            match entry:
                case ("define", el, key):
                    statements.append(macro.Define(el.name, key, el.attributes[key]))
                case ("oncall", el, task):
                    statements.append(macro.Oncall(el.name, task, el.handlers[task]))
                case _:
                    statements.append(entry)
        return statements

    # -- logging -----------------------------------------------------------

    def store_reduced(self, el: WorkflowElement, key: str, value: str, source: str, source_attr: str) -> None:
        """Replace the flow at `el.key` with the literal it reduced to, and
        log the REDUCE event. Replacing in place is the memoization; the
        flow's origin document stays on the attribute for provenance."""
        el.attributes[key] = value
        self.provenance.append(ReductionEvent(
            ReductionEvent.REDUCE, el.name, key, source, source_attr, value, el.attr_origins.get(key, WORKFLOW_ORIGIN)
        ))

    def _log_shadow(self, el, key, old, old_origin, new, new_origin) -> None:
        self.provenance.append(
            ReductionEvent(
                kind=ReductionEvent.SHADOW,
                element=el.name,
                attribute=key,
                old_doc=old_origin,
                new_doc=new_origin,
                old_value=old,
                new_value=new,
            )
        )

