"""Macro language: parsing, canonical serialization, round-trips."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxflow as cf
from ctxflow.macro import KEYWORDS, _lines, is_token, read_text

from conftest import FIXTURES, WORKFLOW

WORKFLOW_TEXT = WORKFLOW.read_text(encoding="utf-8")


class TestParseWorkflow:
    def test_fixture_statement_count_and_tail(self):
        statements = cf.parse_workflow(WORKFLOW_TEXT)
        assert len(statements) == 10
        assert isinstance(statements[-1], cf.FrameworkRun)

    def test_empty_text(self):
        assert cf.parse_workflow("") == []

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\nattach X\n   \n# another\n"
        assert cf.parse_workflow(text) == [cf.Attach("X")]

    def test_terminal_attach(self):
        assert cf.parse_workflow("attach X terminal\nattach Y\n") == [cf.Attach("X", True), cf.Attach("Y", False)]
        assert cf.serialize([cf.Attach("X", True), cf.Attach("Y")]) == "attach X terminal\nattach Y\n"
        state = cf.Linker()
        state.load_context(cf.parse_context("attach X terminal\nattach Y\n", "c.ctx"))
        assert [el.is_terminal for el in state.elements.values()] == [True, True]
        for text in ("attach X Y\n", "attach X terminal Y\n", "attach\n"):
            with pytest.raises(cf.MacroSyntaxError, match="attach takes exactly one element name"):
                cf.parse_workflow(text)

    def test_malformed_separator_rejected(self):
        with pytest.raises(cf.MacroSyntaxError) as err:
            cf.parse_workflow("attach OSCAR\nOSCAR define inputFile :;CMKIN:outputFile\n")
        assert err.value.line_no == 2

    def test_incomplete_reference_rejected(self):
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_workflow("X define k ::onlyname\n")

    def test_context_block_rejected(self):
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_workflow("contextBlock Application=X\n")

    def test_unknown_verb_rejected(self):
        with pytest.raises(cf.MacroSyntaxError) as err:
            cf.parse_workflow("X frobnicate y\n")
        assert err.value.line_no == 1
        with pytest.raises(cf.MacroSyntaxError, match="unrecognized statement: 'X define k'"):
            cf.parse_workflow("X define k\n")

    def test_oncall_requires_element_prefix_at_top_level(self):
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_workflow("oncall contactDB do connectToDatabase\n")

    def test_reference_value_parses_to_flowref(self):
        (statement,) = cf.parse_workflow("X define inputFile ::CMKIN:outputFile\n")
        assert statement == cf.Define("X", "inputFile", cf.FlowRef("CMKIN", "outputFile"))

    def test_args_reference(self):
        (statement,) = cf.parse_workflow("X define f ::@args:UserJDLFile\n")
        assert statement.value == cf.FlowRef("@args", "UserJDLFile")


class TestParseContext:
    def test_framework_context_shape(self):
        text = (FIXTURES / "Framework.ctx").read_text(encoding="utf-8")
        doc = cf.parse_context(text, "Framework.ctx")
        assert [item for item in doc.items if isinstance(item, cf.ContextBlockAst)] == []
        assert [item.group for item in doc.items] == ["preGroup", "onGroup"]
        assert doc.items[1].tasks == ("configureJob", "makeJob", "runJob")

    def test_scheduler_context_shape(self):
        text = (
            "namespace add RunJob Scheduler=LCG_ResourceBroker\n"
            "contextBlock Scheduler=LCG_ResourceBroker\n"
            "  define UserJDLFile ::@args:UserJDLFile\n"
            "  define ResourceBroker ::@args:ResourceBroker\n"
            "  oncall RunJob do submit\n"
            "end\n"
        )
        doc = cf.parse_context(text, "sched")
        top = [item for item in doc.items if not isinstance(item, cf.ContextBlockAst)]
        blocks = [item for item in doc.items if isinstance(item, cf.ContextBlockAst)]
        assert len(top) == 1 and isinstance(top[0], cf.NamespaceAdd)
        assert len(blocks) == 1
        kinds = [type(s).__name__ for s in blocks[0].body]
        assert kinds == ["Define", "Define", "Oncall"]

    def test_unclosed_block(self):
        with pytest.raises(cf.UnclosedBlockError):
            cf.parse_context("contextBlock Application=X\n define a b\n", "doc")

    def test_end_without_block(self):
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_context("end\n", "doc")

    def test_top_level_restriction(self):
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_context("X define a b\n", "doc")
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_context("framework run\n", "doc")

    def test_block_body_restriction(self):
        with pytest.raises(cf.MacroSyntaxError):
            cf.parse_context("contextBlock Application=X\n attach Y\nend\n", "doc")
        with pytest.raises(cf.MacroSyntaxError, match="statement not allowed in a block"):
            cf.parse_context("contextBlock Application=X\n adddep Y\nend\n", "doc")
        with pytest.raises(cf.MacroSyntaxError, match="unrecognized block directive"):
            cf.parse_context("contextBlock Application=X\n define k\nend\n", "doc")

    @pytest.mark.parametrize(
        "line",
        [
            "define k v",
            "define k ::B:x",
            "check k ::@args:k",
            "oncall configure do configureJob",
            "add dependency Database=A,B",
            "namespace add DB Database=A",
        ],
    )
    def test_block_directive_parses_as_element_statement_without_element(self, line):
        (block,) = cf.parse_context(f"contextBlock Application=X\n {line}\nend\n", "doc").items
        (statement,) = cf.parse_workflow("X " + line)
        statement.element = None
        assert block.body == [statement]

    def test_header_alternatives_and_wildcard(self):
        doc = cf.parse_context("contextBlock Application=CMKIN,OSCAR,Site=*\nend\n", "doc")
        header = doc.items[0].header
        assert header.entries == {"Application": ["CMKIN", "OSCAR"], "Site": ["*"]}

    def test_line_numbers_are_one_based(self):
        with pytest.raises(cf.MacroSyntaxError) as err:
            cf.parse_context("attach A\n\nbogus line here\n", "doc")
        assert err.value.line_no == 3

    def test_fixture_corpus_parses(self):
        for name in ["Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx", "Outputs.ctx"]:
            doc = cf.parse_context((FIXTURES / name).read_text(encoding="utf-8"), name)
            assert doc.id == name


class TestSerialize:
    def test_fixture_round_trips_byte_identical(self):
        statements = cf.parse_workflow(WORKFLOW_TEXT)
        assert cf.serialize(statements) == WORKFLOW_TEXT

    def test_single_attach(self):
        assert cf.serialize([cf.Attach("X")]) == "attach X\n"

    def test_block_statement_renders_without_prefix(self):
        from ctxflow.macro import render_statement

        assert render_statement(cf.Define(None, "HCal", "On")) == "define HCal On"
        assert render_statement(cf.Define("OSCAR", "HCal", "On")) == "OSCAR define HCal On"

    @pytest.mark.parametrize("key", ["a b", "a\t", "::a", ":;a", ""])
    @pytest.mark.parametrize("statement", [cf.Define, cf.Check])
    def test_key_that_would_not_reparse_is_an_error(self, statement, key):
        from ctxflow.macro import render_statement

        with pytest.raises(cf.CtxflowError, match="is not a macro token"):
            render_statement(statement("X", key, "v"))


_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True).filter(lambda s: s not in KEYWORDS)
_literal = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_./@-]{0,10}", fullmatch=True)
_flowref = st.builds(cf.FlowRef, st.one_of(_name, st.just("@args")), _name)
_value = st.one_of(_literal, _flowref)
_pattern = st.dictionaries(
    _name, st.lists(st.one_of(_name, st.just("*")), min_size=1, max_size=2), min_size=1, max_size=2
).map(cf.HeaderPattern)

_statement = st.one_of(
    st.builds(cf.Attach, _name),
    st.builds(cf.AddDep, _name, _name),
    st.builds(cf.Define, _name, _name, _value),
    st.builds(cf.FrameworkDefine, _name, st.lists(_name, min_size=1, max_size=3).map(tuple)),
    st.just(cf.FrameworkRun()),
    st.builds(cf.NamespaceAdd, _name, _pattern),
    st.builds(cf.NamespaceAdd, _name, _pattern, _name),
    st.builds(cf.Oncall, _name, _name, _name),
    st.builds(cf.AddDependencyPattern, _name, _pattern),
    st.builds(cf.Check, _name, _name, _value),
)


@given(st.lists(_statement, max_size=30))
def test_round_trip_property(statements):
    assert cf.parse_workflow(cf.serialize(statements)) == statements


_any_name = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.builds("{}{}".format, st.sampled_from(["#", ":", "::", ":;", "=", "a:", ""]), st.text(max_size=4)),
).filter(is_token)


@given(_any_name)
def test_every_name_an_element_may_take_reads_back(name):
    """A define, an adddep and an oncall of any token element name that
    attach_element accepts, and a flow that names it, read back from the
    macro as the same statements."""
    try:
        cf.Linker().attach_element(name)
    except cf.CtxflowError:
        return
    statements = [
        cf.Define(name, "k", "v"), cf.AddDep(name, name), cf.Oncall(name, "t", "h"),
        cf.Define(name, "k", cf.FlowRef(name, "k")),
    ]
    assert cf.parse_workflow(cf.serialize(statements)) == statements


def _previous_read_text(path) -> str:
    """The reader as it was before it read bytes: `Path.read_text`, with
    universal newlines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise cf.CtxflowError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    return text.removeprefix("\ufeff")


_LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(read, path):
    try:
        return list(_lines(read(path)))
    except cf.CtxflowError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.text(max_size=8), st.sampled_from(_LINE_ENDS)), max_size=8),
    st.booleans(),
    st.none() | st.tuples(st.integers(0, 100), st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])),
)
def test_reader_gives_the_lines_of_the_previous_reader(lines, bom, bad):
    """Reading bytes and decoding once, with no newline translation, yields
    the same numbered lines, or the same error, under every line end."""
    data = "".join(line + end for line, end in lines).encode("utf-8")
    if bom:
        data = b"\xef\xbb\xbf" + data
    if bad:
        at, byte = bad
        data = data[:at] + byte + data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.mac"
        path.write_bytes(data)
        assert _outcome(read_text, str(path)) == _outcome(_previous_read_text, str(path))
