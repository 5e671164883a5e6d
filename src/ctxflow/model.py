"""Core graph entities: descriptions, attribute values, elements, and log records.

A workflow is a set of named elements carrying string attributes. An attribute
is either a literal string or a `FlowRef`, a pending constraint that the value
be copied from an attribute of another element (or from the run arguments via
the reserved source token ``@args``). Reduction replaces FlowRefs with
literals one arrow at a time.

Every value class derives from `Record`, which reads the fields from
``__slots__`` when the class is created and writes one plain ``__init__``
(per-class `defaults`; a default given as ``dict``, ``list`` or ``set`` is a
fresh container; ``__post_init__`` runs last), an ``__eq__`` that requires
the same type, a ``Name(field=value, ...)`` ``__repr__`` and
``__match_args__``. Fields in `hidden` are left out of ``__eq__`` and
``__repr__``. A `frozen` record is hashable and refuses writes; others are
unhashable.
"""

from __future__ import annotations

import heapq
from operator import attrgetter

WORKFLOW_ORIGIN = "workflow"
ARGS_SOURCE = "@args"
WILDCARD = "*"


def _require_token(text: str, what: str) -> str:
    if text.split() != [text]:
        raise ValueError(f"{what} must be a non-empty token, got {text!r}")
    return text


_FRESH = object()


class Record:
    """Base of every value class; see the module docstring. Each ``__init__``
    is generated, as a generic one looping over the fields slowed parsing."""

    __slots__ = ()

    def __init_subclass__(cls, defaults=None, hidden=(), frozen=False):
        fields = cls.__slots__
        defaults = defaults or {}
        namespace = {"_FRESH": _FRESH, "_set": object.__setattr__}
        params, body = [], []
        for name in fields:
            namespace[f"_default_{name}"] = default = defaults.get(name)
            fresh = isinstance(default, type)
            params.append(f"{name}=_FRESH" if fresh else f"{name}=_default_{name}" if name in defaults else name)
            value = f"_default_{name}() if {name} is _FRESH else {name}" if fresh else name
            body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__match_args__ = fields
        shown = [name for name in fields if name not in hidden]
        key = attrgetter(*shown) if shown else (lambda record: ())

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        def __repr__(self):
            return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in shown)})"

        cls.__eq__, cls.__repr__ = __eq__, __repr__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_write


def _refuse_write(self, name, *value):
    raise AttributeError(f"cannot {'assign' if value else 'delete'} {type(self).__name__}.{name}: it is immutable")


class Description(Record, defaults={"entries": dict}):
    """Ordered key/value identity of a workflow element.

    Serializes canonically as comma-joined ``key=value`` pairs in insertion
    order. Keys are unique; keys and values are non-empty tokens.
    """

    __slots__ = ("entries",)

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


class HeaderPattern(Record, defaults={"entries": dict}):
    """Match target for context block headers, aliases, and pattern deps.

    Each key maps to a list of admissible values; ``*`` admits any value.
    Canonical text form: ``key=v1,v2,key2=v3`` (a comma piece containing
    ``=`` starts a new key, otherwise it extends the previous key's list).
    """

    __slots__ = ("entries",)

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


class FlowRef(Record, frozen=True):
    """One metadata-flow arrow stored on its target attribute.

    `source` is an element name, an alias, or the reserved token ``@args``.
    """

    __slots__ = ("source", "attr")

    def __str__(self) -> str:
        return f"::{self.source}:{self.attr}"


class WorkflowElement(Record, hidden=("applied_directives",), defaults={
    "is_terminal": False, "attributes": dict, "attr_origins": dict, "dependencies": list, "handlers": dict,
    "applied_directives": set,
}):
    """A node of the workflow multigraph.

    Application nodes take part in sequencing; metadata terminals exist only
    to source or sink metadata flows and never appear in emitted DAG arrows.
    Values are literals or FlowRefs; dependencies are element names or
    HeaderPatterns. The statements that shaped an element are in its
    Linker's `log`.
    """

    __slots__ = (
        "name", "description", "is_terminal", "attributes", "attr_origins", "dependencies", "handlers",
        "applied_directives",
    )


class ReductionEvent(Record, defaults=dict.fromkeys(
    ("source", "source_attr", "value", "doc", "old_doc", "new_doc", "old_value", "new_value")
)):
    """One provenance log record.

    kind ``REDUCE``: a flow was satisfied and removed; `source`/`source_attr`
    name the resolved origin (or ``@args``) and `doc` the document that
    defined the flow. kind ``SHADOW``: a later directive overwrote an earlier
    write to the same attribute; `old_value`/`old_doc` and
    `new_value`/`new_doc` are the two writes, values as written.

    An event's position in the log is its order; it carries no number. Events
    are never mutated once logged, so one object may appear in the log more
    than once: a replayed job logs again each event of the job before it
    whose value did not change.
    """

    __slots__ = (
        "kind", "element", "attribute", "source", "source_attr", "value", "doc", "old_doc", "new_doc",
        "old_value", "new_value",
    )

    REDUCE = "REDUCE"
    SHADOW = "SHADOW"
