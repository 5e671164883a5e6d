"""The description index: every indexed selection equals a full scan.

`Linker.match`, block selection and kv-source selection each answer from an
index; the scans here are the reference they must reproduce, in order. The
scaling guard counts `HeaderPattern.matches` calls, so it does not depend
on timing.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import ctxflow as cf
from ctxflow.model import WILDCARD

KEYS = ["Application", "Database", "Site", "Tier"]
VALUES = ["x", "y", "z", "w"]

descriptions = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(VALUES), min_size=1, max_size=4).map(
    cf.Description
)
# Alternatives may repeat, and may mix `*` with concrete values.
patterns = st.dictionaries(
    st.sampled_from(KEYS),
    st.lists(st.sampled_from(VALUES + [WILDCARD]), min_size=1, max_size=4),
    min_size=1,
    max_size=3,
).map(cf.HeaderPattern)


@st.composite
def linkers(draw):
    """A Linker built by plain, terminal and aliased attaches, with some
    elements then removed from `elements` and some names re-attached."""
    state = cf.Linker()
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["plain", "default", "terminal", "aliased"]))
        if kind == "plain":
            state.attach_element(f"e{i}", draw(descriptions))
        elif kind == "default":
            state.attach_element(draw(st.sampled_from(VALUES)) + str(i))
        elif kind == "terminal":
            state.attach_element(f"t{i}", draw(descriptions), is_terminal=True)
        else:
            key = draw(st.sampled_from(KEYS))
            state.add_alias(f"alias{i}", cf.HeaderPattern({key: [f"a{i}"]}))
            state.attach(f"alias{i}")
    names = list(state.elements)
    for name in draw(st.lists(st.sampled_from(names), unique=True)) if names else []:
        state.elements.pop(name)
        if draw(st.booleans()):
            state.attach_element(name, draw(descriptions))
    return state


@settings(max_examples=300, deadline=None)
@given(linkers(), patterns)
def test_match_equals_scan(state, pattern):
    expected = [el for el in state.elements.values() if pattern.matches(el.description)]
    assert state.match(pattern) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(patterns, max_size=8), descriptions)
def test_block_selection_equals_scan(headers, description):
    state = cf.Linker()
    for n, header in enumerate(headers):
        block = cf.ContextBlockAst(header, [cf.Define(None, "k", f"v{n}")])
        state.load_context(cf.ContextDocumentAst(f"doc{n}.ctx", [block]))
    expected = [(doc_id, index, ast) for doc_id, index, ast in state._blocks if ast.header.matches(description)]
    assert state.matching_blocks(description) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(descriptions, st.just(cf.Description({}))), max_size=8), descriptions)
def test_kv_source_selection_equals_scan(source_descriptions, description):
    state = cf.Linker()
    for n, source_description in enumerate(source_descriptions):
        state.add_kv_source(cf.KvSource(source_description, Path(f"s{n}.kv")))
    expected = [source for source in state.kv_sources if source.description.subsumes(description)]
    assert state.kv_sources_for(description) == expected


def _corpus(n: int) -> tuple[cf.ContextDocumentAst, cf.ContextDocumentAst, str, int]:
    """n applications and n terminals; blocks by name and by wildcard in
    both directions; a pattern dependency and a name dependency per
    application. Returns the documents, the workflow and the number of
    dependencies."""
    terminals = "".join(f"attach T{i}\n" for i in range(n))
    terminal_blocks = "".join(f"contextBlock Database=T{i}\n define size {i}\nend\n" for i in range(n))
    db_doc = cf.parse_context(terminals + terminal_blocks, "db.ctx")
    app_blocks = "contextBlock Application=*\n define Site cern\nend\n" + "".join(
        f"contextBlock Application=A{i}\n define version {i}\n add dependency Database=T{i}\nend\n"
        for i in range(n)
    )
    app_doc = cf.parse_context(app_blocks, "apps.ctx")
    workflow = "".join(f"attach A{i}\n" for i in range(n))
    workflow += "".join(f"A{i} add dependency Application=A{i - 1}\nA{i} adddep A{i - 1}\n" for i in range(1, n))
    return db_doc, app_doc, workflow, n + 2 * (n - 1)


def _matches_calls(monkeypatch, n: int) -> tuple[int, int]:
    calls = 0
    original = cf.HeaderPattern.matches

    def counting(self, description):
        nonlocal calls
        calls += 1
        return original(self, description)

    db_doc, app_doc, workflow, dependencies = _corpus(n)
    state = cf.Linker()
    with monkeypatch.context() as patch:
        patch.setattr(cf.HeaderPattern, "matches", counting)
        state.load_context(db_doc)
        state.load_context(app_doc)
        state.run_statements(cf.parse_workflow(workflow))
        cf.emit_dag(state)
    return calls, len(state.elements) + dependencies


def test_matching_grows_linearly(monkeypatch):
    small_calls, small_size = _matches_calls(monkeypatch, 40)
    large_calls, large_size = _matches_calls(monkeypatch, 160)
    assert small_calls > 0
    # A scan over all elements or all blocks per lookup would grow about
    # four times faster than the corpus here.
    assert large_calls / large_size <= 1.1 * small_calls / small_size
