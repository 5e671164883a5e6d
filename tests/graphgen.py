"""Random flow-graph recipes plus independent oracles.

The oracles here deliberately avoid the engine's own machinery: edges are
rebuilt from raw attribute scans with exact-name lookup, cycles are found by
a color DFS over parent pointers, and the reduction order comes from a
parent-first chain walk.
"""

from __future__ import annotations

import random

import ctxflow as cf

Recipe = tuple[list[str], list[tuple[str, str, str, str]]]


def build_recipe(rng: random.Random, max_elements: int = 50, max_flows: int = 200) -> Recipe:
    """An acyclic recipe: flows always point from a lower-index element to a
    higher-index one, so no slot cycle can form."""
    n = rng.randint(2, max_elements)
    names = [f"n{i}" for i in range(n)]
    flow_slots: dict[int, list[str]] = {i: [] for i in range(n)}
    flows: list[tuple[str, str, str, str]] = []
    for j in range(rng.randint(0, max_flows)):
        target = rng.randrange(1, n)
        source = rng.randrange(0, target)
        if flow_slots[source] and rng.random() < 0.5:
            source_attr = rng.choice(flow_slots[source])
        else:
            source_attr = "base"
        target_attr = f"a{j}"
        flows.append((names[target], target_attr, names[source], source_attr))
        flow_slots[target].append(target_attr)
    return names, flows


def inject_cycle(rng: random.Random, recipe: Recipe) -> Recipe:
    """Add a flow cycle of length 2..5 on fresh attributes."""
    names, flows = recipe
    k = rng.randint(2, min(5, len(names)))
    members = rng.sample(range(len(names)), k)
    extra = []
    for idx, element in enumerate(members):
        successor = members[(idx + 1) % k]
        extra.append((names[element], f"c{idx}", names[successor], f"c{(idx + 1) % k}"))
    return names, flows + extra


def inject_bad_flow(rng: random.Random, recipe: Recipe, kind: str) -> Recipe:
    """Add one flow on a fresh attribute of a random element: ``"self"``
    reads its own slot, ``"unknown"`` reads from an element that is never
    attached."""
    names, flows = recipe
    target = rng.choice(names)
    attr = f"{kind}{len(flows)}"
    if kind == "self":
        return names, flows + [(target, attr, target, attr)]
    return names, flows + [(target, attr, f"ghost{len(flows)}", "base")]


def build_state(recipe: Recipe) -> cf.Linker:
    names, flows = recipe
    state = cf.Linker()
    for i, name in enumerate(names):
        state.attach_element(name)
        state.set_attribute(name, "base", f"v{i}")
    for target, target_attr, source, source_attr in flows:
        state.set_attribute(target, target_attr, cf.FlowRef(source, source_attr))
    return state


def parent_edges(state: cf.Linker) -> dict[tuple[str, str], tuple[str, str] | None]:
    """slot -> its source slot (None when the source is already a literal)."""
    edges: dict[tuple[str, str], tuple[str, str] | None] = {}
    for el in state.elements.values():
        for key, value in el.attributes.items():
            if not isinstance(value, cf.FlowRef):
                continue
            source = state.elements.get(value.source)
            if source is not None and isinstance(source.attributes.get(value.attr), cf.FlowRef):
                edges[(el.name, key)] = (source.name, value.attr)
            else:
                edges[(el.name, key)] = None
    return edges


def dfs_has_cycle(edges: dict) -> bool:
    color: dict = {}
    for start in edges:
        if color.get(start) == "done":
            continue
        walk = []
        node = start
        while node is not None and color.get(node) != "done":
            if color.get(node) == "active":
                return True
            color[node] = "active"
            walk.append(node)
            node = edges.get(node)
        for visited in walk:
            color[visited] = "done"
    return False


def topo_slots(edges: dict) -> list[tuple[str, str]]:
    """Every slot after its source slot; assumes acyclic edges."""
    order: list[tuple[str, str]] = []
    seen: set = set()
    for start in edges:
        chain = []
        node = start
        while node is not None and node not in seen:
            seen.add(node)
            chain.append(node)
            node = edges.get(node)
        order.extend(reversed(chain))
    return order


def scan_slot_order(state: cf.Linker) -> list[tuple[str, str]]:
    """Stable reduction-order oracle: repeatedly take the lowest (element
    position, key) slot whose source slot is already placed or is not a
    flow. Assumes acyclic edges."""
    edges = parent_edges(state)
    position = {name: i for i, name in enumerate(state.elements)}
    slots = sorted(edges, key=lambda slot: (position[slot[0]], slot[1]))
    placed: list[tuple[str, str]] = []
    done: set = set()
    while len(placed) < len(slots):
        slot = next(s for s in slots if s not in done and (edges[s] is None or edges[s] in done))
        placed.append(slot)
        done.add(slot)
    return placed


def assert_cycle(path: list, follows) -> None:
    """`path` closes on its first node, repeats no other, and each hop
    follows one edge: ``follows(a, b)`` for every consecutive pair."""
    assert len(path) >= 2 and path[0] == path[-1], path
    assert len(set(path[:-1])) == len(path) - 1, path
    for a, b in zip(path, path[1:]):
        assert follows(a, b), (path, a, b)
