"""Core graph entities: descriptions, attribute values, elements, and log records.

A workflow is a set of named elements carrying string attributes. An attribute
is either a literal string or a `FlowRef`, a pending constraint that the value
be copied from an attribute of another element (or from the run arguments via
the reserved source token ``@args``). Reduction replaces FlowRefs with
literals one arrow at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

WORKFLOW_ORIGIN = "workflow"
ARGS_SOURCE = "@args"
WILDCARD = "*"


def _require_token(text: str, what: str) -> str:
    if not text or text != text.strip() or any(ch.isspace() for ch in text):
        raise ValueError(f"{what} must be a non-empty token, got {text!r}")
    return text


@dataclass
class Description:
    """Ordered key/value identity of a workflow element.

    Serializes canonically as comma-joined ``key=value`` pairs in insertion
    order. Keys are unique; keys and values are non-empty tokens.
    """

    entries: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for k, v in self.entries.items():
            _require_token(k, "description key")
            _require_token(v, "description value")

    def canonical(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.entries.items())

    def subsumes(self, other: Description) -> bool:
        """True if every pair of this description appears in `other`."""
        return all(other.entries.get(k) == v for k, v in self.entries.items())

    @classmethod
    def parse(cls, text: str) -> Description:
        entries: dict[str, str] = {}
        for piece in text.split(","):
            if "=" not in piece:
                raise ValueError(f"description pair without '=': {piece!r}")
            k, v = piece.split("=", 1)
            if k in entries:
                raise ValueError(f"duplicate description key: {k}")
            entries[k] = v
        return cls(entries)

    def __str__(self) -> str:
        return self.canonical()


@dataclass
class HeaderPattern:
    """Match target for context block headers, aliases, and pattern deps.

    Each key maps to a list of admissible values; ``*`` admits any value.
    Canonical text form: ``key=v1,v2,key2=v3`` (a comma piece containing
    ``=`` starts a new key, otherwise it extends the previous key's list).
    """

    entries: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("pattern must have at least one key")
        for k, vals in self.entries.items():
            _require_token(k, "pattern key")
            if not vals:
                raise ValueError(f"pattern key {k} has no values")
            for v in vals:
                _require_token(v, "pattern value")

    def matches(self, description: Description) -> bool:
        """True if every pattern key is present in `description` with an
        admitted value. Extra description keys are permitted."""
        for key, alternatives in self.entries.items():
            actual = description.entries.get(key)
            if actual is None:
                return False
            if WILDCARD not in alternatives and actual not in alternatives:
                return False
        return True

    def canonical(self) -> str:
        parts = []
        for k, vals in self.entries.items():
            parts.append(f"{k}={vals[0]}")
            parts.extend(vals[1:])
        return ",".join(parts)

    def single_value(self) -> str | None:
        """The unique concrete value when the pattern is one key with one
        non-wildcard value; used to derive alias element names."""
        if len(self.entries) != 1:
            return None
        values = next(iter(self.entries.values()))
        if len(values) == 1 and values[0] != WILDCARD:
            return values[0]
        return None

    @classmethod
    def parse(cls, text: str) -> HeaderPattern:
        entries: dict[str, list[str]] = {}
        current: str | None = None
        for piece in text.split(","):
            if "=" in piece:
                current, v = piece.split("=", 1)
                entries.setdefault(current, []).append(v)
            elif current is not None:
                entries[current].append(piece)
            else:
                raise ValueError(f"pattern must start with key=value, got {text!r}")
        return cls(entries)

    def __str__(self) -> str:
        return self.canonical()


class DescriptionIndex:
    """Registration positions filed under ``(key, value)`` pairs and keys.

    The items themselves live in a list kept by the owner; the index holds
    only their positions, appended in registration order. Lookups return
    positions sorted, so callers see items in registration order. An item
    filed under nothing is a candidate for every description.
    """

    def __init__(self):
        self._by_pair: dict[tuple[str, str], list[int]] = {}
        self._by_key: dict[str, list[int]] = {}
        self._anywhere: list[int] = []

    def add(self, position: int, pairs=(), keys=()) -> None:
        if not pairs and not keys:
            self._anywhere.append(position)
        for pair in pairs:
            self._by_pair.setdefault(pair, []).append(position)
        for key in keys:
            self._by_key.setdefault(key, []).append(position)

    def matching(self, pattern: HeaderPattern) -> list[int]:
        """Positions filed, for every key of `pattern`, under an admitted
        pair (or under the key, when it admits ``*``). Over items filed under
        every pair and key of their description, these are exactly the items
        that `pattern` matches."""
        found: set[int] | None = None
        for key, alternatives in pattern.entries.items():
            if WILDCARD in alternatives:
                positions = self._by_key.get(key, ())
            else:
                positions = [p for value in alternatives for p in self._by_pair.get((key, value), ())]
            found = set(positions) if found is None else found.intersection(positions)
            if not found:
                return []
        return sorted(found)

    def candidates(self, description: Description) -> list[int]:
        """Positions filed under a pair or a key of `description`, or under
        nothing."""
        found = set(self._anywhere)
        for key, value in description.entries.items():
            found.update(self._by_pair.get((key, value), ()))
            found.update(self._by_key.get(key, ()))
        return sorted(found)


def toposort(nodes: list, sources: list) -> tuple[list | None, list | None]:
    """Kahn's topological sort (CACM 5(11), 1962) of `nodes`.

    `sources[i]` lists the nodes that ``nodes[i]`` comes after; a source
    that is not one of `nodes` is ignored. Among nodes ready together, the
    one earlier in `nodes` comes first. Returns ``(order, None)``, or
    ``(None, cycle)`` when no order exists: starting at the first unordered
    node, step to its first unordered source until a node repeats. Every
    unordered node has one, so the walk ends; `cycle` is the closed part,
    its first node repeated at the end.
    """
    position = {node: i for i, node in enumerate(nodes)}
    indegree = [0] * len(nodes)
    dependents: list[list[int]] = [[] for _ in nodes]
    for i, node_sources in enumerate(sources):
        for source in node_sources:
            s = position.get(source)
            if s is not None:
                dependents[s].append(i)
                indegree[i] += 1
    ready = [i for i, degree in enumerate(indegree) if not degree]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(nodes[i])
        for d in dependents[i]:
            indegree[d] -= 1
            if not indegree[d]:
                heapq.heappush(ready, d)
    if len(order) == len(nodes):
        return order, None
    # A node still waiting on a source is exactly one left unordered.
    walk = [next(i for i, degree in enumerate(indegree) if degree)]
    seen = {walk[0]: 0}
    while True:
        i = next(s for s in map(position.get, sources[walk[-1]]) if s is not None and indegree[s])
        if i in seen:
            return None, [nodes[j] for j in walk[seen[i]:]] + [nodes[i]]
        seen[i] = len(walk)
        walk.append(i)


@dataclass(frozen=True)
class FlowRef:
    """One metadata-flow arrow stored on its target attribute.

    `source` is an element name, an alias, or the reserved token ``@args``.
    """

    source: str
    attr: str

    def __str__(self) -> str:
        return f"::{self.source}:{self.attr}"


@dataclass
class WorkflowElement:
    """A node of the workflow multigraph.

    Application nodes take part in sequencing; metadata terminals exist only
    to source or sink metadata flows and never appear in emitted DAG arrows.
    `history` records the statements that shaped this element, in order, so
    the state can be replayed as a macro document.
    """

    name: str
    description: Description
    is_terminal: bool = False
    attributes: dict[str, str | FlowRef] = field(default_factory=dict)
    attr_origins: dict[str, str] = field(default_factory=dict)
    dependencies: list[str | HeaderPattern] = field(default_factory=list)
    handlers: dict[str, str] = field(default_factory=dict)
    history: list[tuple] = field(default_factory=list, compare=False, repr=False)
    applied_directives: set[tuple] = field(default_factory=set, compare=False, repr=False)


@dataclass(slots=True)
class ReductionEvent:
    """One provenance log record.

    kind ``REDUCE``: a flow was satisfied and removed; `source`/`source_attr`
    name the resolved origin (or ``@args``) and `doc` the document that
    defined the flow. kind ``SHADOW``: a later directive overwrote an earlier
    write to the same attribute; `old_value`/`old_doc` and
    `new_value`/`new_doc` are the two writes, values as written.
    """

    seq: int
    kind: str
    element: str
    attribute: str
    source: str | None = None
    source_attr: str | None = None
    value: str | None = None
    doc: str | None = None
    old_doc: str | None = None
    new_doc: str | None = None
    old_value: str | FlowRef | None = None
    new_value: str | FlowRef | None = None

    REDUCE = "REDUCE"
    SHADOW = "SHADOW"
