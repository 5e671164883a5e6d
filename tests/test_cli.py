"""Command-line driver: subcommands, emit targets, exit codes."""

from __future__ import annotations

import argparse
import io
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctxflow as cf
from ctxflow import cli, framework
from ctxflow.cli import cli_main
from ctxflow.linker import Linker

from conftest import FIXTURES, GOLDEN

CONTEXT_FLAGS = [
    "-c", str(FIXTURES / "Framework.ctx"),
    "-c", str(FIXTURES / "PhysicsGroup.ctx"),
    "-c", str(FIXTURES / "Scheduler.ctx"),
]
VALUE_FLAGS = [
    "--db", f"Database=RefDB:{FIXTURES / 'RefDB.kv'}",
    "--db", f"Database=PhysicsGroupDB:{FIXTURES / 'PhysicsGroupDB.kv'}",
    "--arg", "UserJDLFile=job.jdl",
    "--arg", "ResourceBroker=rb.example.org",
]
REDUCE_CONTEXT_FLAGS = CONTEXT_FLAGS + ["-c", str(FIXTURES / "Outputs.ctx")]
REDUCE_FLAGS = REDUCE_CONTEXT_FLAGS + VALUE_FLAGS
WORKFLOW = str(FIXTURES / "workflow.mac")
RUN_GOLDEN = FIXTURES / "run_jobs3.golden"
# X is also the name of an alias for Y: internal reads of X must not land on Y.
ALIAS_SHADOWED_WORKFLOW = (
    "attach X\nattach Y\nX define k ::@args:v\nY define k lit\nnamespace add X Application=Y\n"
)


class TestApply:
    def test_emits_golden_macro(self, tmp_path):
        out = tmp_path / "expanded.mac"
        code = cli_main(["apply", *CONTEXT_FLAGS, WORKFLOW, "--emit", "macro", "-o", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")

    def test_emits_dag_to_stdout(self, capsys):
        code = cli_main(["apply", *CONTEXT_FLAGS, WORKFLOW, "--emit", "dag"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("JOB CMKIN CMKIN.sub\n")
        assert "PARENT OSCAR CHILD Digitization\n" in out

    def test_context_order_changes_nothing_without_collisions(self, tmp_path):
        a, b = tmp_path / "a.mac", tmp_path / "b.mac"
        reordered = [
            "-c", str(FIXTURES / "Scheduler.ctx"),
            "-c", str(FIXTURES / "PhysicsGroup.ctx"),
            "-c", str(FIXTURES / "Framework.ctx"),
        ]
        assert cli_main(["apply", *CONTEXT_FLAGS, WORKFLOW, "-o", str(a)]) == 0
        assert cli_main(["apply", *reordered, WORKFLOW, "-o", str(b)]) == 0
        # statement order follows element history either way; the statement
        # multiset must be identical when nothing collides
        assert sorted(a.read_text().splitlines()) == sorted(b.read_text().splitlines())

    # A block directive acts on the element its header matched, even when
    # that element's name is also an alias for another pattern.
    BLOCK_ON_X = "contextBlock Database=X\nnamespace add Foo Database=Z\nend\n"

    def test_directive_on_element_whose_alias_matches_nothing(self, tmp_path, capsys):
        ctx, wf = tmp_path / "c.ctx", tmp_path / "wf.mac"
        ctx.write_text("namespace add X Application=Y\nattach X\n" + self.BLOCK_ON_X, encoding="utf-8")
        wf.write_text("", encoding="utf-8")
        assert cli_main(["apply", "-c", str(ctx), str(wf)]) == 0
        assert capsys.readouterr().out == (
            "namespace add X Application=Y\nattach X terminal\nX namespace add Foo Database=Z\n"
        )

    def test_directive_on_element_whose_alias_matches_another(self, tmp_path, capsys):
        ctx, wf = tmp_path / "c.ctx", tmp_path / "wf.mac"
        ctx.write_text("namespace add X Database=Y\nattach Y\nattach X\n" + self.BLOCK_ON_X, encoding="utf-8")
        wf.write_text("", encoding="utf-8")
        assert cli_main(["apply", "-c", str(ctx), str(wf)]) == 0
        assert capsys.readouterr().out == (
            "namespace add X Database=Y\nattach Y terminal\nattach X terminal\nX namespace add Foo Database=Z\n"
        )

    def test_multi_key_pattern_dependency_registers_no_alias(self, tmp_path, capsys):
        # The pattern has no single concrete value to serve as an alias name.
        wf = tmp_path / "wf.mac"
        wf.write_text("attach X\nX add dependency Database=R,Site=s\n", encoding="utf-8")
        assert cli_main(["apply", str(wf)]) == 0
        assert capsys.readouterr().out == "attach X\nX add dependency Database=R,Site=s\n"

    def test_documents_with_the_same_file_name_both_apply(self, tmp_path, capsys):
        # The file name is only the provenance label: the document loaded last wins.
        for folder, body in (("a", " define k fromA\n"), ("b", " define k fromB\n define j onlyB\n")):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "site.ctx").write_text(f"contextBlock Application=X\n{body}end\n", encoding="utf-8")
        wf = tmp_path / "wf.mac"
        wf.write_text("attach X\n", encoding="utf-8")
        flags = ["-c", str(tmp_path / "a" / "site.ctx"), "-c", str(tmp_path / "b" / "site.ctx")]
        assert cli_main(["apply", *flags, str(wf)]) == 0
        assert capsys.readouterr().out == "attach X\nX define k fromB\nX define j onlyB\n"
        assert cli_main(["apply", *flags, "--strict-collisions", str(wf)]) == 3
        assert capsys.readouterr().err == "collision: X.k: site.ctx (fromA) shadowed by site.ctx (fromB)\n"

    def test_a_document_loaded_twice_applies_twice(self, tmp_path, capsys):
        # A repeated write logs nothing; a check directive is registered once per load.
        ctx, wf = tmp_path / "site.ctx", tmp_path / "wf.mac"
        ctx.write_text("contextBlock Application=X\n define k v\n check k v\nend\n", encoding="utf-8")
        wf.write_text("attach X\n", encoding="utf-8")
        flags = ["-c", str(ctx), "-c", str(ctx), "--strict-collisions"]
        assert cli_main(["apply", *flags, str(wf)]) == 0
        assert capsys.readouterr().out == "attach X\nX define k v\nX check k v\nX check k v\n"
        assert cli_main(["reduce", "--emit", "provenance", *flags, str(wf)]) == 0
        assert capsys.readouterr().out == ""

    def test_alias_registration_printed_once_per_element(self, tmp_path, capsys):
        # Whether the alias or the pattern dependency comes first, an element
        # registers the alias once, and the macro says so once.
        wf = tmp_path / "wf.mac"
        text = (
            "attach R\nattach X\nX namespace add R Application=R\nX add dependency Application=R\n"
            "attach Y\nY add dependency Application=R\nY namespace add R Application=R\n"
        )
        wf.write_text(text, encoding="utf-8")
        assert cli_main(["apply", str(wf)]) == 0
        assert capsys.readouterr().out == text

    def test_forward_adddep_replays(self, tmp_path, capsys):
        # X depends on Y and W, Y on W, and each is attached before what it
        # depends on: the macro attaches the target before replaying adddep.
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "attach X\nattach Z\nattach Y\nattach W\nX adddep Y\nX adddep W\nY adddep W\n"
            "W define v 1\nY define k ::W:v\nX define k ::Y:k\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.mac"
        assert cli_main(["apply", "-o", str(out), str(wf)]) == 0
        assert cli_main(["apply", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")
        dags = []
        for path in (wf, out):
            assert cli_main(["apply", "--emit", "dag", str(path)]) == 0
            dags.append(capsys.readouterr().out)
        assert dags[0] == dags[1]

    def test_stdout_gets_the_bytes_of_the_output_file(self, tmp_path):
        # An ASCII stdout made `python -m ctxflow.cli` end in a UnicodeEncodeError traceback.
        wf, out = tmp_path / "wf.mac", tmp_path / "out.mac"
        wf.write_text("attach A\nA define v café\n", encoding="utf-8")
        assert cli_main(["apply", str(wf), "-o", str(out)]) == 0
        src = str(Path(cf.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "ctxflow.cli", "apply", str(wf)],
                              env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, out.read_bytes(), b"")

    def test_stderr_names_what_the_input_named(self, tmp_path):
        # An ASCII stderr printed the name as caf\xe9, a name the input never held.
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\ncafé define v 1\n", encoding="utf-8")
        src = str(Path(cf.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "ctxflow.cli", "apply", str(wf)],
                              env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "ascii"}, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (1, b"", "error: unknown element: café\n".encode())

    def test_closed_stdout_is_an_error(self, tmp_path):
        # A closed stdout made every command, even those that never write to it, end in an AttributeError traceback.
        for command in ("apply", "validate"):
            done = _with_closed([command, *CONTEXT_FLAGS, WORKFLOW], cwd=tmp_path)
            assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"error: stdout is closed; give -o PATH\n")
        assert list(tmp_path.iterdir()) == []

    def test_closed_stderr_reports_nothing(self, tmp_path):
        # With stderr closed, print(file=None) wrote each report to stdout.
        wf = tmp_path / "wf.mac"
        wf.write_text("attach X\n", encoding="utf-8")
        for ctx in ("a.ctx", "b.ctx"):
            (tmp_path / ctx).write_text(f"contextBlock Application=X\n define k {ctx}\nend\n", encoding="utf-8")
        for argv, code in ((["apply", "missing.mac"], 1),
                           (["apply", "-c", "a.ctx", "-c", "b.ctx", "--strict-collisions", "wf.mac"], 3)):
            done = _with_closed(argv, cwd=tmp_path, stream="2")
            assert (done.returncode, done.stdout, done.stderr) == (code, b"", b"")


def _with_closed(argv: list[str], cwd: Path, stream: str = "") -> subprocess.CompletedProcess:
    """`python -m ctxflow.cli ARGV` run by sh with its stdout, or with
    `stream="2"` its stderr, closed."""
    src = str(Path(cf.__file__).resolve().parent.parent)
    return subprocess.run(["sh", "-c", f'"$@" {stream}>&-', "sh", sys.executable, "-m", "ctxflow.cli", *argv],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src}, capture_output=True)


def _without_ctx(text: str) -> list[str]:
    """The lines of a provenance log, each REDUCE line cut before its ctx= field."""
    return [line.partition(" ctx=")[0] for line in text.splitlines()]


class TestReplay:
    """`apply` output, replayed with the same --db and --arg and no -c,
    reduces to the same literals and REDUCE lines; only ctx= may differ,
    since every replayed write has the origin `workflow`."""

    def test_fixture_expansion_replays_the_run(self, tmp_path, capsys):
        expanded, out_dir = tmp_path / "expanded.mac", tmp_path / "jobs"
        assert cli_main(["apply", *REDUCE_CONTEXT_FLAGS, WORKFLOW, "-o", str(expanded)]) == 0
        assert cli_main(["run", *VALUE_FLAGS, str(expanded), "--jobs", "3", "--out-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in RUN_GOLDEN.iterdir())
        assert sorted(p.name for p in out_dir.iterdir()) == names
        for name in names:
            replayed, golden = ((path / name).read_text(encoding="utf-8") for path in (out_dir, RUN_GOLDEN))
            assert (_without_ctx(replayed) == _without_ctx(golden)) if name == "provenance.log" else replayed == golden
        assert cli_main(["reduce", *VALUE_FLAGS, "--emit", "provenance", str(expanded)]) == 0
        golden = (FIXTURES / "reduce_provenance.golden.log").read_text(encoding="utf-8")
        assert _without_ctx(capsys.readouterr().out) == _without_ctx(golden)

    def test_top_level_alias_replays(self, tmp_path, capsys):
        wf, expanded = tmp_path / "wf.mac", tmp_path / "expanded.mac"
        wf.write_text("namespace add R Application=A\nattach A\nA define y 1\nattach B\nB define x ::R:y\n",
                      encoding="utf-8")
        assert cli_main(["apply", str(wf), "-o", str(expanded)]) == 0
        for path in (wf, expanded):
            assert cli_main(["reduce", "--emit", "provenance", str(path)]) == 0
            assert capsys.readouterr().out == "REDUCE B.x <- A.y = 1 ctx=workflow\n"

    def test_alias_attach_on_another_key_replays(self, tmp_path, capsys):
        # The attach is printed through the alias, so LCG keeps Scheduler=LCG.
        wf, expanded = tmp_path / "wf.mac", tmp_path / "expanded.mac"
        wf.write_text("namespace add RunJob Scheduler=LCG\nattach RunJob\nLCG define v 1\nattach B\n"
                      "B define x ::RunJob:v\n", encoding="utf-8")
        assert cli_main(["apply", str(wf), "-o", str(expanded)]) == 0
        assert "\nattach RunJob\n" in expanded.read_text(encoding="utf-8")
        for path in (wf, expanded):
            assert cli_main(["reduce", "--emit", "provenance", str(path)]) == 0
            assert capsys.readouterr().out == "REDUCE B.x <- LCG.v = 1 ctx=workflow\n"

    def test_element_named_like_an_alias_replays(self, tmp_path):
        # X is an element and an alias for Y: the block's directives on X are
        # printed under X, and X still means the element on replay.
        ctx, wf, expanded, again = (tmp_path / name for name in ("c.ctx", "wf.mac", "expanded.mac", "again.mac"))
        ctx.write_text("namespace add X Database=Y\nattach Y terminal\nattach X terminal\ncontextBlock Database=X\n"
                       "namespace add Foo Database=Z\ndefine k v\nend\n", encoding="utf-8")
        wf.write_text("", encoding="utf-8")
        assert cli_main(["apply", "-c", str(ctx), str(wf), "-o", str(expanded)]) == 0
        assert expanded.read_text(encoding="utf-8").splitlines()[3:] == ["X namespace add Foo Database=Z", "X define k v"]
        assert cli_main(["apply", str(expanded), "-o", str(again)]) == 0
        assert again.read_bytes() == expanded.read_bytes()

    def test_element_name_comes_before_an_alias(self, tmp_path, capsys):
        wf = tmp_path / "wf.mac"
        wf.write_text("attach Y\nY define v fromY\nattach X\nX define v fromX\nnamespace add X Application=Y\n"
                      "X define w 1\nattach B\nB define x ::X:v\nB adddep X\n", encoding="utf-8")
        assert cli_main(["reduce", "--emit", "provenance", str(wf)]) == 0
        assert capsys.readouterr().out == "REDUCE B.x <- X.v = fromX ctx=workflow\n"
        assert cli_main(["apply", str(wf)]) == 0
        assert capsys.readouterr().out == wf.read_text(encoding="utf-8")
        assert cli_main(["apply", "--emit", "dag", str(wf)]) == 0
        assert capsys.readouterr().out == "JOB Y Y.sub\nJOB X X.sub\nJOB B B.sub\nPARENT X CHILD B\n"

    def test_reduced_golden_is_a_fixpoint(self, capsys):
        reduced = FIXTURES / "reduce_macro.golden.mac"
        assert cli_main(["reduce", *VALUE_FLAGS, str(reduced)]) == 0
        assert capsys.readouterr().out == reduced.read_text(encoding="utf-8")


class TestReduce:
    def test_reduced_macro_has_no_references(self, tmp_path):
        out = tmp_path / "reduced.mac"
        code = cli_main(["reduce", *REDUCE_FLAGS, WORKFLOW, "--emit", "macro", "-o", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "::" not in text and "define HiggsMass 125.0" in text

    def test_provenance_lines(self, tmp_path, capsys):
        code = cli_main(["reduce", *REDUCE_FLAGS, WORKFLOW, "--emit", "provenance"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        reduce_lines = [l for l in lines if l.startswith("REDUCE ")]
        assert len(reduce_lines) == GOLDEN.read_text(encoding="utf-8").count("::")

    def test_provenance_matches_golden_bytes(self, tmp_path):
        # The non-replay path through the memoized emitter: every event is distinct.
        out = tmp_path / "provenance.log"
        assert cli_main(["reduce", *REDUCE_FLAGS, WORKFLOW, "--emit", "provenance", "-o", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "reduce_provenance.golden.log").read_bytes()

    def test_macro_matches_golden_bytes(self, tmp_path):
        # Replays each element's history after the kv files have loaded.
        out = tmp_path / "reduced.mac"
        assert cli_main(["reduce", *REDUCE_FLAGS, WORKFLOW, "--emit", "macro", "-o", str(out)]) == 0
        assert out.read_bytes() == (FIXTURES / "reduce_macro.golden.mac").read_bytes()

    def test_shell_scripts_written(self, tmp_path):
        out_dir = tmp_path / "scripts"
        code = cli_main(["reduce", *REDUCE_FLAGS, WORKFLOW, "--emit", "shell", "--out-dir", str(out_dir)])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["0_CMKIN.sh", "0_Digitization.sh", "0_LCG_ResourceBroker.sh", "0_OSCAR.sh"]

    def test_flow_names_an_element_whose_name_holds_a_colon(self, tmp_path, monkeypatch, capsys):
        # A reference splits at its last colon, so ::a:b:k reads k of element a:b.
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text("attach a:b\na:b define k v\nattach B\nB define y ::a:b:k\n", encoding="utf-8")
        assert cli_main(["reduce", "--emit", "provenance", "wf.mac"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "REDUCE B.y <- a:b.k = v ctx=workflow\n"
        assert captured.err == ""

    def test_shell_with_an_output_file_exits_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text("attach A\nA define v 1\n", encoding="utf-8")
        assert cli_main(["reduce", "--emit", "shell", "-o", "out.sh", "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --emit shell writes one script per application; give --out-dir DIR, not -o\n"
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == [Path("wf.mac")]

    def test_missing_arg_fails(self, tmp_path):
        flags = [f for f in REDUCE_FLAGS if not f.startswith("UserJDLFile")]
        flags.remove("--arg")
        code = cli_main(["reduce", *flags, WORKFLOW])
        assert code == 1

    def test_failing_check_exits_one(self, tmp_path, capsys):
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\nA define v 1\nA check v 2\n", encoding="utf-8")
        assert cli_main(["reduce", str(wf)]) == 1
        assert "check failed" in capsys.readouterr().err

    def test_malformed_db_description_exits_one(self, capsys):
        assert cli_main(["reduce", "--db", "garbage:x.kv", WORKFLOW]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "garbage" in err
        for spec, message in [
            ("garbage", "--db expects DESC:FILE, got 'garbage'"),
            ("Database=a b:x.kv", "--db 'Database=a b:x.kv': description value must be a non-empty token, got 'a b'"),
            ("=x:x.kv", "--db '=x:x.kv': description key must be a non-empty token, got ''"),
            ("Database=A,Database=B:f.kv", "--db 'Database=A,Database=B:f.kv': duplicate description key: Database"),
        ]:
            assert cli_main(["reduce", "--db", spec, WORKFLOW]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_check_against_an_unbound_arg_exits_one(self, tmp_path, capsys):
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\nA define v 1\nA check v ::@args:X\n", encoding="utf-8")
        assert cli_main(["reduce", str(wf)]) == 1
        assert capsys.readouterr().err == "error: no argument binding for @args key: X\n"

    @pytest.mark.parametrize("emit", ["macro", "provenance", "shell"])
    def test_dependency_cycle_exits_two_whatever_the_emit(self, tmp_path, monkeypatch, capsys, emit):
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text("attach A\nattach B\nA adddep B\nB adddep A\nA define v 1\n", encoding="utf-8")
        assert cli_main(["reduce", "--emit", emit, "--out-dir", "out", "wf.mac"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: dependency cycle: A -> B -> A\n"
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == [Path("wf.mac")]

    def test_non_utf8_kv_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "RefDB.kv"
        bad.write_bytes(b"k=\xff\n")
        flags = [f"Database=RefDB:{bad}" if f.startswith("Database=RefDB:") else f for f in REDUCE_FLAGS]
        assert cli_main(["reduce", *flags, WORKFLOW]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err.splitlines()[0]
        # A malformed or unreadable kv file fails the same way.
        failed = "error: handler failed for RefDB on task contactDB:"
        for content, reason in [
            (b"k=1\nnovalue\n", "line 2: expected key=value"),
            (b"k=1\n=c\n", "line 2: empty key"),
            (b"k=1\nk=c\n", "line 2: duplicate key k"),
        ]:
            bad.write_bytes(content)
            assert cli_main(["reduce", *flags, WORKFLOW]) == 1
            assert capsys.readouterr().err == f"{failed} {bad} {reason}\n"
        bad.unlink()
        assert cli_main(["reduce", *flags, WORKFLOW]) == 1
        assert capsys.readouterr().err == (
            f"{failed} cannot read kv file {bad}: [Errno 2] No such file or directory: '{bad}'\n"
        )

    @pytest.mark.parametrize("name, value", [("A", "$(echo pwned)"), ("$(touch${IFS}PWNED)", "v")],
                             ids=["value", "element-name"])
    def test_shell_values_are_quoted(self, tmp_path, name, value):
        wf = tmp_path / "wf.mac"
        wf.write_text(f"attach {name}\n{name} define v ::@args:X\n", encoding="utf-8")
        out_dir = tmp_path / "scripts"
        argv = ["reduce", str(wf), "--emit", "shell", "--arg", f"X={value}", "--out-dir", str(out_dir)]
        assert cli_main(argv) == 0
        sourced = subprocess.run(
            ["sh", "-c", '. "./$1"; printf "%s" "$v"', "sh", f"0_{name}.sh"],
            cwd=out_dir, capture_output=True, text=True, check=True,
        )
        assert sourced.stdout == f"run {name}\n{value}"
        assert sorted(p.name for p in out_dir.iterdir()) == [f"0_{name}.sh"]

    def test_element_named_like_an_alias_is_reduced(self, tmp_path, capsys):
        wf = tmp_path / "wf.mac"
        wf.write_text(ALIAS_SHADOWED_WORKFLOW, encoding="utf-8")
        assert cli_main(["reduce", str(wf), "--arg", "v=a"]) == 0
        assert "X define k a\n" in capsys.readouterr().out
        assert cli_main(["reduce", str(wf), "--arg", "v=a", "--emit", "provenance"]) == 0
        assert capsys.readouterr().out == "REDUCE X.k <- @args.v = a ctx=workflow\n"

    @pytest.mark.parametrize("value", ["a b", "", "::B:c", ":;c"])
    def test_macro_literal_that_would_not_reparse_exits_one(self, tmp_path, capsys, value):
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\nA define v ::@args:X\n", encoding="utf-8")
        assert cli_main(["reduce", str(wf), "--arg", f"X={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: attribute A.v: ")

    @pytest.mark.parametrize("key", ["a b", "a ", "::a", ":;a"])
    def test_kv_key_that_is_not_a_token_exits_one(self, tmp_path, capsys, key):
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "framework define preGroup contactDB\nattach X\nX oncall contactDB do connectToDatabase\n",
            encoding="utf-8",
        )
        kv = tmp_path / "sp.kv"
        kv.write_text(f"ok=1\n{key}=c\n", encoding="utf-8")
        assert cli_main(["reduce", "--db", f"Application=X:{kv}", str(wf)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"{kv} line 2" in captured.err

    def test_shell_key_that_is_not_a_name_exits_one(self, tmp_path, capsys):
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\nA define my-key v\n", encoding="utf-8")
        assert cli_main(["reduce", str(wf), "--emit", "shell", "--out-dir", str(tmp_path / "scripts")]) == 1
        assert capsys.readouterr().err.startswith("error: attribute A.my-key")


def _force_job_path(monkeypatch, path: str) -> list[int]:
    """Let a run of several jobs take the replay path, or the general path
    by wrapping configureJob; returns the plan length of each replayed job."""
    replays = []
    real_replay = Linker.replay_reductions

    def counting(state, plan, marked):
        replays.append(len(plan))
        real_replay(state, plan, marked)

    monkeypatch.setattr(Linker, "replay_reductions", counting)
    if path == "general":
        real_builtins = framework.builtin_handlers
        monkeypatch.setattr(framework, "builtin_handlers", lambda: {
            **real_builtins(), "configureJob": lambda ctx: framework.configure_job(ctx),
        })
    return replays


def _replayed_run(root: Path) -> list[str]:
    """Write the inputs of a 10-job `run` shaped like the `run_jobs`
    benchmark, and return its argv without `--out-dir`. Each of 40
    applications reads 50 flows from a kv catalog or the application before
    it, and one flow from the job index, so nearly every event of a replayed
    job is the previous job's event object: 20,400 lines, about 1.1 MB."""
    (root / "framework.ctx").write_text(
        "framework define preGroup contactDB\nframework define onGroup configure,make,submitJobs\n"
        "attach Catalog\ncontextBlock Database=Catalog\n  oncall contactDB do connectToDatabase\nend\n"
        "contextBlock Application=*\n  oncall configure do configureJob\n  oncall make do makeJob\nend\n",
        encoding="utf-8",
    )
    (root / "catalog.kv").write_text("".join(f"key{k:02d}=value-{k:02d}\n" for k in range(50)), encoding="utf-8")
    workflow = []
    for i in range(40):
        app = f"App{i:02d}"
        workflow += [f"attach {app}", f"{app} define job ::Catalog:jobIndex"]
        for n in range(50):
            source = f"App{i - 1:02d}:f{n:02d}" if i and n % 2 else f"Catalog:key{n:02d}"
            workflow.append(f"{app} define f{n:02d} ::{source}")
    workflow += ["App39 oncall submitJobs do submit", "framework run"]
    (root / "wf.mac").write_text("".join(line + "\n" for line in workflow), encoding="utf-8")
    return ["run", "--jobs", "10", "-c", str(root / "framework.ctx"),
            "--db", f"Database=Catalog:{root / 'catalog.kv'}", str(root / "wf.mac")]


class TestRun:
    def test_full_run_writes_outputs(self, tmp_path):
        out_dir = tmp_path / "jobs"
        code = cli_main(["run", *REDUCE_FLAGS, WORKFLOW, "--jobs", "3", "--out-dir", str(out_dir)])
        assert code == 0
        manifest = (out_dir / "manifest.log").read_text(encoding="utf-8")
        assert len(manifest.splitlines()) == 3
        scripts = sorted(p.name for p in out_dir.glob("*.sh"))
        assert len(scripts) == 12
        assert (out_dir / "provenance.log").exists()

    @staticmethod
    def _assert_golden_run(out_dir: Path) -> None:
        names = sorted(p.name for p in RUN_GOLDEN.iterdir())
        assert sorted(p.name for p in out_dir.iterdir()) == names
        for name in names:
            assert (out_dir / name).read_bytes() == (RUN_GOLDEN / name).read_bytes(), name

    def test_three_jobs_match_golden_bytes(self, tmp_path):
        out_dir = tmp_path / "jobs"
        assert cli_main(["run", *REDUCE_FLAGS, WORKFLOW, "--jobs", "3", "--out-dir", str(out_dir)]) == 0
        self._assert_golden_run(out_dir)

    def test_module_entry_point_matches_golden_bytes(self, tmp_path):
        # `python -m ctxflow.cli` goes through main(), which turns the cyclic collector off.
        out_dir = tmp_path / "jobs"
        src = str(Path(cf.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "ctxflow.cli", "run", *REDUCE_FLAGS, WORKFLOW, "--jobs", "3", "--out-dir", str(out_dir)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        self._assert_golden_run(out_dir)

    def test_closed_stdout_changes_nothing(self, tmp_path):
        out_dir = tmp_path / "jobs"
        done = _with_closed(["run", *REDUCE_FLAGS, WORKFLOW, "--jobs", "3", "--out-dir", str(out_dir)],
                            cwd=tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        self._assert_golden_run(out_dir)

    def test_element_named_like_an_alias_runs(self, tmp_path):
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "framework define onGroup configure,make\n" + ALIAS_SHADOWED_WORKFLOW
            + "X oncall configure do configureJob\nX oncall make do makeJob\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(wf), "--arg", "v=a", "--jobs", "2", "--out-dir", str(out_dir)]) == 0
        for job in ("0", "1"):
            assert f"export jobIndex={job}\nexport k=a\n" in (out_dir / f"{job}_X.sh").read_text(encoding="utf-8")
        assert (out_dir / "provenance.log").read_text(encoding="utf-8") == (
            "REDUCE X.k <- @args.v = a ctx=workflow\n" * 2
        )

    @pytest.mark.parametrize("path", ["replay", "general"])
    def test_flow_from_a_terminal_job_index(self, tmp_path, monkeypatch, path):
        # Every element, terminals included, gets jobIndex.
        replays = _force_job_path(monkeypatch, path)
        ctx = tmp_path / "fw.ctx"
        ctx.write_text("framework define onGroup configure,make\nattach Catalog\n", encoding="utf-8")
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "attach A\nA define job ::Catalog:jobIndex\n"
            "A oncall configure do configureJob\nA oncall make do makeJob\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert cli_main(["run", "-c", str(ctx), str(wf), "--jobs", "3", "--out-dir", str(out_dir)]) == 0
        assert len(replays) == (2 if path == "replay" else 0)
        for job in ("0", "1", "2"):
            script = (out_dir / f"{job}_A.sh").read_text(encoding="utf-8")
            assert f"export job={job}\n" in script

    @pytest.mark.parametrize("path", ["replay", "general"])
    def test_job_index_from_the_workflow_is_shadowed_once(self, tmp_path, monkeypatch, path):
        # Job 0 records that the framework overwrote the workflow's jobIndex;
        # later jobs rewrite the framework's own value unrecorded.
        replays = _force_job_path(monkeypatch, path)
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "framework define onGroup configure,make\nattach A\nA define jobIndex 7\nA define v ::A:jobIndex\n"
            "A oncall configure do configureJob\nA oncall make do makeJob\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(wf), "--jobs", "3", "--out-dir", str(out_dir)]) == 0
        assert len(replays) == (2 if path == "replay" else 0)
        assert (out_dir / "provenance.log").read_text(encoding="utf-8") == (
            "SHADOW A.jobIndex workflow -> framework\n"
            + "".join(f"REDUCE A.v <- A.jobIndex = {job} ctx=workflow\n" for job in range(3))
        )
        for job in range(3):
            assert f"export jobIndex={job}\nexport v={job}\n" in (out_dir / f"{job}_A.sh").read_text(encoding="utf-8")

    def test_groups_defined_in_reverse_match_golden_bytes(self, tmp_path):
        # preGroup runs first whatever the order in which Framework.ctx lists it.
        swapped = tmp_path / "Framework.ctx"
        lines = (FIXTURES / "Framework.ctx").read_text(encoding="utf-8").splitlines()
        swapped.write_text("".join(line + "\n" for line in reversed(lines)), encoding="utf-8")
        flags = [str(swapped) if flag == str(FIXTURES / "Framework.ctx") else flag for flag in REDUCE_FLAGS]
        out_dir = tmp_path / "jobs"
        assert cli_main(["run", *flags, WORKFLOW, "--jobs", "3", "--out-dir", str(out_dir)]) == 0
        self._assert_golden_run(out_dir)

    def test_pre_group_defined_last_runs_first(self, tmp_path, capsys):
        # run and reduce take the same preGroup step, so they reduce the same.
        (tmp_path / "db.kv").write_text("B=7\n", encoding="utf-8")
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "framework define onGroup configureJob,makeJob,submit\nframework define preGroup contactDB\n"
            "attach DB terminal\nDB oncall contactDB do connectToDatabase\n"
            "attach A\nA oncall configureJob do configureJob\nA define x ::DB:B\n",
            encoding="utf-8",
        )
        db = ["--db", f"Database=DB:{tmp_path / 'db.kv'}"]
        assert cli_main(["reduce", *db, "--emit", "provenance", str(wf)]) == 0
        assert capsys.readouterr().out == "REDUCE A.x <- DB.B = 7 ctx=workflow\n"
        out_dir = tmp_path / "out"
        assert cli_main(["run", *db, "--jobs", "1", "--out-dir", str(out_dir), str(wf)]) == 0
        assert (out_dir / "provenance.log").read_text(encoding="utf-8") == "REDUCE A.x <- DB.B = 7 ctx=workflow\n"

    def test_post_group_submit_takes_every_job(self, tmp_path):
        wf = tmp_path / "wf.mac"
        wf.write_text(
            "framework define onGroup configureJob,makeJob\nframework define postGroup submit\n"
            "attach A\nattach B\nA define x 1\nB define x ::A:x\nB oncall submit do submit\n"
            + "".join(f"{el} oncall {task} do {task}\n" for el in "AB" for task in ("configureJob", "makeJob")),
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--jobs", "2", "--out-dir", str(out_dir), str(wf)]) == 0
        assert (out_dir / "manifest.log").read_text(encoding="utf-8") == "".join(
            f"JOB {job} {el} jobIndex={job},x=1\n" for job in range(2) for el in "AB"
        )

    def test_run_without_on_group_reduces_every_job(self, tmp_path):
        wf = tmp_path / "wf.mac"
        wf.write_text("framework define preGroup contactDB\nattach A\nattach B\nA define v 1\nB define x ::A:v\n",
                      encoding="utf-8")
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--jobs", "2", "--out-dir", str(out_dir), str(wf)]) == 0
        assert sorted(_scripts(out_dir)) == ["0_A.sh", "0_B.sh", "1_A.sh", "1_B.sh"]
        assert "export jobIndex=1\nexport x=1\n" in (out_dir / "1_B.sh").read_text(encoding="utf-8")
        assert (out_dir / "provenance.log").read_text(encoding="utf-8") == "REDUCE B.x <- A.v = 1 ctx=workflow\n" * 2
        assert (out_dir / "manifest.log").read_text(encoding="utf-8") == ""

    def test_zero_jobs_rejected(self, tmp_path):
        code = cli_main(["run", *REDUCE_FLAGS, WORKFLOW, "--jobs", "0", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_flow_cycle_in_handler_exits_two(self, tmp_path, capsys):
        # configureJob meets the cycle, so it arrives wrapped in HandlerError
        wf = tmp_path / "cyclic.mac"
        wf.write_text(
            "framework define onGroup configureJob\nattach A\nattach B\n"
            "A define x ::B:y\nB define y ::A:x\nA oncall configureJob do configureJob\n",
            encoding="utf-8",
        )
        assert cli_main(["run", str(wf), "--out-dir", str(tmp_path / "out")]) == 2
        assert "flow cycle" in capsys.readouterr().err

    def test_the_log_is_never_held_whole(self, tmp_path, monkeypatch):
        # Heap allocated from the call of emit_provenance to the end of the run:
        # writing the log may hold its distinct lines, but not a copy of it.
        argv, start = _replayed_run(tmp_path), []
        real = cli.emit_provenance

        def traced(state):
            tracemalloc.start()
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            return real(state)

        monkeypatch.setattr(cli, "emit_provenance", traced)
        try:
            assert cli_main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start[0]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "out" / "provenance.log").stat().st_size
        assert size > 500_000
        assert peak < size

    def test_the_scripts_are_never_held_whole(self, tmp_path, monkeypatch):
        # Heap allocated from the call of emit_shell to the end of the run:
        # each script is built as it is written, and none is kept.
        argv, start = _replayed_run(tmp_path), []
        real = cli.emit_shell

        def traced(state, trace):
            tracemalloc.start()
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])
            return real(state, trace)

        monkeypatch.setattr(cli, "emit_shell", traced)
        try:
            assert cli_main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start[0]
        finally:
            tracemalloc.stop()
        scripts = list((tmp_path / "out").glob("*.sh"))
        size = sum(path.stat().st_size for path in scripts)
        assert len(scripts) == 400 and size > 300_000
        assert peak < size / 2

    def test_a_write_that_fails_partway(self, tmp_path):
        """A write that fails is exit 1 with one error line; the outputs
        written before it are whole, and the one it stopped is cut short."""
        pytest.importorskip("resource")
        argv, full, cut, limit = _replayed_run(tmp_path), tmp_path / "full", tmp_path / "cut", 1 << 20
        assert cli_main([*argv, "--out-dir", str(full)]) == 0
        assert (full / "manifest.log").stat().st_size < limit < (full / "provenance.log").stat().st_size
        child = (
            "import resource, signal\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from ctxflow.cli import main\n"
            "main()\n"
        )
        src = str(Path(cf.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", child, *argv, "--out-dir", str(cut)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: [Errno 27] File too large\n")
        names = sorted(p.name for p in full.iterdir())
        assert sorted(p.name for p in cut.iterdir()) == names
        for name in names:
            if name != "provenance.log":
                assert (cut / name).read_bytes() == (full / name).read_bytes(), name
        log, whole = (cut / "provenance.log").read_bytes(), (full / "provenance.log").read_bytes()
        assert len(log) < len(whole) and whole.startswith(log)


class TestValidate:
    def test_fixture_validates_clean(self, capsys):
        code = cli_main(["validate", *CONTEXT_FLAGS, WORKFLOW])
        assert code == 0
        assert "0 collisions" in capsys.readouterr().out

    def test_flow_cycle_exits_two(self, tmp_path):
        wf = tmp_path / "cyclic.mac"
        wf.write_text("attach A\nattach B\nA define x ::B:y\nB define y ::A:x\n", encoding="utf-8")
        assert cli_main(["validate", str(wf)]) == 2

    def test_self_reading_flow_is_a_cycle_as_in_reduce(self, tmp_path, capsys):
        wf = tmp_path / "self.mac"
        wf.write_text("attach A\nA define x ::A:x\n", encoding="utf-8")
        for command in ("validate", "reduce"):
            assert cli_main([command, str(wf)]) == 2
            assert capsys.readouterr().err == "error: flow cycle: A.x -> A.x\n"

    def test_unresolvable_source_exits_one_as_in_reduce(self, tmp_path, capsys):
        wf = tmp_path / "nowhere.mac"
        wf.write_text("attach A\nA define x ::nowhere:y\n", encoding="utf-8")
        for command in ("validate", "reduce"):
            assert cli_main([command, str(wf)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: flow source nowhere in ::nowhere:y matches no attached element\n"
            assert captured.out == ""
        for text, message in [
            ("attach A\nnamespace add R Application=Nope\nA define y ::R:y\n",
             "alias R: pattern Application=Nope matches no attached element"),
            ("attach A\nattach B\nattach C\nnamespace add R Application=A,B\nC define y ::R:y\n",
             "alias R: pattern Application=A,B matches several elements: A, B"),
        ]:
            wf.write_text(text, encoding="utf-8")
            for command in ("validate", "reduce"):
                assert cli_main([command, str(wf)]) == 1
                captured = capsys.readouterr()
                assert captured.err == f"error: flow source R in ::R:y: {message}\n"
                assert captured.out == ""

    def test_unresolvable_check_source_exits_one_as_in_reduce(self, tmp_path, capsys):
        wf = tmp_path / "check.mac"
        wf.write_text("attach A\nA define v 1\nA check v ::Nowhere:x\n", encoding="utf-8")
        for command in ("validate", "reduce"):
            assert cli_main([command, str(wf)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: flow source Nowhere in ::Nowhere:x matches no attached element\n"
            assert captured.out == ""
        # validate reads no value, so an unbound @args check is left to reduce.
        wf.write_text("attach A\nA define v 1\nA check v ::@args:X\n", encoding="utf-8")
        assert cli_main(["validate", str(wf)]) == 0
        assert capsys.readouterr().out == "ok: 1 elements, 0 flows, 0 collisions\n"

    def test_pattern_dependency_never_offers_the_dependent(self, tmp_path, capsys):
        # Application=* matches A itself; as in dependency_order, A is not its own source.
        wf = tmp_path / "self.mac"
        wf.write_text(
            "attach A\nA add dependency Application=*\nA define y v\nA define x ::Application:y\n", encoding="utf-8"
        )
        for command in ("validate", "reduce"):
            assert cli_main([command, str(wf)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: flow source Application in ::Application:y matches no attached element\n"
            assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ("namespace add R Application=*\nattach A\nattach B\nR define k v\n",
         "alias R: pattern Application=* matches several elements: A, B"),
        ("namespace add N Application=x,Site=y\nattach N\n",
         "alias N: pattern Application=x,Site=y has no single concrete value to name an element"),
    ], ids=["ambiguous", "no-single-value"])
    def test_alias_that_names_no_one_element_exits_one(self, tmp_path, capsys, text, message):
        wf = tmp_path / "alias.mac"
        wf.write_text(text, encoding="utf-8")
        for command in ("apply", "validate", "reduce"):
            assert cli_main([command, str(wf)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""

    def test_cycle_wins_over_unresolvable_source(self, tmp_path, capsys):
        wf = tmp_path / "both.mac"
        wf.write_text("attach A\nA define a ::nowhere:y\nA define x ::A:x\n", encoding="utf-8")
        for command in ("validate", "reduce"):
            assert cli_main([command, str(wf)]) == 2
            assert capsys.readouterr().err == "error: flow cycle: A.x -> A.x\n"

    def test_dependency_cycle_exits_two(self, tmp_path):
        wf = tmp_path / "depcycle.mac"
        wf.write_text("attach A\nattach B\nA adddep B\nB adddep A\n", encoding="utf-8")
        assert cli_main(["validate", str(wf)]) == 2

    def test_dependency_cycle_path_does_not_depend_on_hash_seed(self, tmp_path):
        wf = tmp_path / "depcycle.mac"
        wf.write_text("attach A\nattach B\nattach C\nA adddep B\nB adddep C\nC adddep A\n", encoding="utf-8")
        src = str(Path(cf.__file__).resolve().parent.parent)
        for seed in ("1", "3"):
            done = subprocess.run(
                [sys.executable, "-m", "ctxflow.cli", "validate", str(wf)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True,
            )
            assert done.returncode == 2
            assert done.stderr == "error: dependency cycle: A -> B -> C -> A\n"

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        wf = tmp_path / "broken.mac"
        wf.write_text("attach A\nA define k :;B:x\n", encoding="utf-8")
        assert cli_main(["validate", str(wf)]) == 1
        assert capsys.readouterr().err == "error: line 2: malformed reference separator ':;' in ':;B:x'\n"
        for text, message in [
            ("attach A B\n", "line 1: attach takes exactly one element name"),
            ("framework define onGroup ,\n", "line 1: framework define needs a task list"),
            ("framework go\n", "line 1: unrecognized framework statement: 'framework go'"),
            ("namespace drop X Application=Y\n",
             "line 1: unrecognized namespace statement: 'namespace drop X Application=Y'"),
            ("namespace add X Application\n", "line 1: pattern must start with key=value, got 'Application'"),
            ("attach A\nA add dependency =x\n", "line 2: pattern key must be a non-empty token, got ''"),
        ]:
            wf.write_text(text, encoding="utf-8")
            assert cli_main(["validate", str(wf)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        ctx = tmp_path / "broken.ctx"
        wf.write_text("attach A\n", encoding="utf-8")
        for text, message in [
            ("contextBlock Application=A\ncontextBlock Application=B\nend\n", "line 2: contextBlock may not nest"),
            ("contextBlock\nend\n", "line 1: contextBlock takes exactly one header pattern"),
        ]:
            ctx.write_text(text, encoding="utf-8")
            assert cli_main(["validate", "-c", str(ctx), str(wf)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_strict_collisions_exit_three(self, tmp_path, capsys):
        (tmp_path / "one.ctx").write_text("contextBlock Application=A\n define k v1\nend\n", encoding="utf-8")
        (tmp_path / "two.ctx").write_text("contextBlock Application=A\n define k v2\nend\n", encoding="utf-8")
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\n", encoding="utf-8")
        flags = ["-c", str(tmp_path / "one.ctx"), "-c", str(tmp_path / "two.ctx")]
        assert cli_main(["validate", *flags, str(wf)]) == 0
        assert cli_main(["validate", *flags, "--strict-collisions", str(wf)]) == 3
        assert capsys.readouterr().err == "collision: A.k: one.ctx (v1) shadowed by two.ctx (v2)\n"

    # Per case: files, flags, workflow, and the write that gets shadowed: by
    # a later document, by a kv file at preGroup, or by the framework's
    # jobIndex in job 0.
    COLLISIONS = {
        "documents": (
            {"one.ctx": "contextBlock Application=A\n define k v1\nend\n",
             "two.ctx": "contextBlock Application=A\n define k v2\nend\n"},
            ["-c", "one.ctx", "-c", "two.ctx"],
            "framework define onGroup configure\nattach A\n",
            "A.k: one.ctx (v1) shadowed by two.ctx (v2)",
        ),
        "kv": (
            {"s.kv": "k=v2\n"},
            ["--db", "Application=A:s.kv"],
            "framework define preGroup contactDB\nattach A\nA define k v1\nA oncall contactDB do connectToDatabase\n",
            "A.k: workflow (v1) shadowed by s.kv (v2)",
        ),
        "jobIndex": (
            {},
            [],
            "framework define onGroup configure\nattach A\nA define jobIndex 7\nA define v ::A:jobIndex\n"
            "A oncall configure do configureJob\n",
            "A.jobIndex: workflow (7) shadowed by framework (0)",
        ),
    }

    @pytest.mark.parametrize("command, case", [
        ("apply", "documents"), ("reduce", "documents"), ("run", "documents"),
        ("reduce", "kv"), ("run", "kv"), ("run", "jobIndex"),
    ])
    def test_strict_collisions_seen_after_every_step(self, tmp_path, monkeypatch, capsys, command, case):
        files, flags, workflow, collision = self.COLLISIONS[case]
        monkeypatch.chdir(tmp_path)
        for name, text in {**files, "wf.mac": workflow}.items():
            Path(name).write_text(text, encoding="utf-8")
        argv = [command, *flags, "wf.mac", *(["--out-dir", "out"] if command == "run" else [])]
        assert cli_main([*argv, "--strict-collisions"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"collision: {collision}\n"
        assert captured.out == "" and not Path("out").exists()
        assert cli_main(argv) == 0

    def test_strict_collisions_report_a_shadowed_flow(self, tmp_path, capsys):
        (tmp_path / "one.ctx").write_text("contextBlock Application=A\n define k ::B:x\nend\n", encoding="utf-8")
        (tmp_path / "two.ctx").write_text("contextBlock Application=A\n define k v2\nend\n", encoding="utf-8")
        wf = tmp_path / "wf.mac"
        wf.write_text("attach A\n", encoding="utf-8")
        flags = ["-c", str(tmp_path / "one.ctx"), "-c", str(tmp_path / "two.ctx"), "--strict-collisions"]
        assert cli_main(["validate", *flags, str(wf)]) == 3
        assert capsys.readouterr().err == "collision: A.k: one.ctx (::B:x) shadowed by two.ctx (v2)\n"

    def test_validate_gate_sees_only_load_collisions(self, tmp_path, monkeypatch, capsys):
        # validate reads no value: a kv file's shadowing at preGroup is
        # reported by reduce, never by validate.
        monkeypatch.chdir(tmp_path)
        Path("s.kv").write_text("a=2\n", encoding="utf-8")
        Path("wf.mac").write_text(
            "framework define preGroup contactDB\nattach X\nX define a 1\nX oncall contactDB do connectToDatabase\n",
            encoding="utf-8",
        )
        assert cli_main(["validate", "--strict-collisions", "wf.mac"]) == 0
        assert capsys.readouterr().out == "ok: 1 elements, 0 flows, 0 collisions\n"
        assert cli_main(["reduce", "--strict-collisions", "--db", "Application=X:s.kv", "wf.mac"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "collision: X.a: workflow (1) shadowed by s.kv (2)\n"
        assert captured.out == ""

    def test_missing_file_exits_one(self):
        assert cli_main(["validate", "no/such/file.mac"]) == 1

    def test_non_utf8_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("attach Caf\xe9\n".encode("latin-1"))
        good = tmp_path / "wf.mac"
        good.write_text("attach A\n", encoding="utf-8")
        for argv in (["validate", str(bad)], ["validate", "-c", str(bad), str(good)]):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bad) in err

    BOM = b"\xef\xbb\xbf"

    def test_kv_file_with_a_byte_order_mark(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("db.kv").write_bytes(self.BOM + b"HMass2004=125.0\n")
        Path("d.ctx").write_text("attach DB\n", encoding="utf-8")
        Path("w.mac").write_text(
            "attach A\nA define m ::DB:HMass2004\nDB oncall contactDB do connectToDatabase\n"
            "framework define preGroup contactDB\n",
            encoding="utf-8",
        )
        assert cli_main(["reduce", "-c", "d.ctx", "--db", "Database=DB:db.kv", "w.mac"]) == 0
        assert "A define m 125.0\n" in capsys.readouterr().out

    def test_context_document_with_a_byte_order_mark(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("c.ctx").write_bytes(self.BOM + b"contextBlock Application=A\n define k v\nend\n")
        Path("w.mac").write_text("attach A\n", encoding="utf-8")
        assert cli_main(["apply", "-c", "c.ctx", "w.mac"]) == 0
        assert capsys.readouterr().out == "attach A\nA define k v\n"

    def test_workflow_with_a_byte_order_mark(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("w.mac").write_bytes(self.BOM + b"attach A\n")
        assert cli_main(["apply", "w.mac"]) == 0
        assert capsys.readouterr().out == "attach A\n"
        # A decode error still counts its byte from the start of the file.
        Path("w.mac").write_bytes(self.BOM + b"ab\xffcd")
        assert cli_main(["apply", "w.mac"]) == 1
        assert "(byte 5: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["w.mac", "c.ctx", "db.kv"])
    def test_byte_order_mark_and_a_bad_byte_in_every_format(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(tmp_path)
        Path("c.ctx").write_text("attach DB\n", encoding="utf-8")
        Path("db.kv").write_text("k=v\n", encoding="utf-8")
        Path("w.mac").write_text(
            "framework define preGroup contactDB\nDB oncall contactDB do connectToDatabase\n", encoding="utf-8"
        )
        Path(bad).write_bytes(self.BOM + b"ab\xffcd")
        assert cli_main(["reduce", "-c", "c.ctx", "--db", "Database=DB:db.kv", "w.mac"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{bad}: not UTF-8 text (byte 5: " in err

    def test_kv_comments_blank_lines_and_crlf_change_no_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("c.ctx").write_text("attach DB\n", encoding="utf-8")
        Path("w.mac").write_text(
            "framework define preGroup contactDB\nDB oncall contactDB do connectToDatabase\n"
            "attach A\nA define a ::DB:a\nA define b ::DB:b\n",
            encoding="utf-8",
        )
        argv = ["reduce", "-c", "c.ctx", "--db", "Database=DB:db.kv", "w.mac"]
        outputs = []
        for content in (b"a=1\nb=two\n", b"# values\r\n\r\n  a=1  \r\n\r\n# b next\r\nb=two\r\n\r\n"):
            Path("db.kv").write_bytes(content)
            assert cli_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert "A define a 1\n" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_usage_error_exits_one(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert cli_main(["apply", WORKFLOW, "--emit", "nonsense"]) == 1
        capsys.readouterr()


class TestParse:
    def test_argparse_sees_one_pair_per_run(self, monkeypatch):
        # argparse's parse is quadratic in argv; `cli._parse` hands it a run of pairs as its first pair.
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(parser, args=None, namespace=None):
            seen.append(list(args))
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        dbs = [f"Database=T{i}:in/T{i}.kv" for i in range(600)]
        bindings = [f"k{i}=v{i}" for i in range(600)]
        pairs = [token for db, binding in zip(dbs, bindings) for token in ("--db", db, "--arg", binding)]
        ns = cli._parse(["reduce", "--emit", "provenance", "-c", "a.ctx", *pairs, "wf.mac"])
        assert len(seen) == 1 and len(seen[0]) <= 20, seen
        assert (ns.db, ns.arg, ns.context, ns.workflow) == (dbs, bindings, ["a.ctx"], "wf.mac")


# Runs of exact --db/--arg pairs, each after one token or two of another
# kind: what may stand next to them (`--`, a bare `-`, an option left
# without its value) or, in ARGV_SPELLED, every other spelling argparse
# takes for them, values that start with `-` included.
ARGV_RUNS = st.lists(st.tuples(st.sampled_from(["--db", "--arg"]),
                               st.sampled_from(["K=V", "Database=X:x.kv", "v", ""])), max_size=4)
ARGV_VALUES = st.sampled_from(["K=V", "Database=X:x.kv", "", "-", "-v", "-1", "--db", "--", "a b"])
ARGV_PLAIN = st.sampled_from([("--",), ("-",), ("-o",), ("-c",), ("--jobs",), ("wf.mac",), ("-h",), ("-c", "x.ctx"),
                              ("--strict-collisions",), ("--emit", "provenance"), ("--jobs", "3")])
ARGV_SPELLED = st.one_of(
    st.sampled_from([("--db",), ("--arg",)]),
    st.tuples(st.sampled_from(["--db", "--arg", "--ar", "--d"]), ARGV_VALUES),
    st.builds(lambda option, value: (f"{option}={value}",), st.sampled_from(["--db", "--arg", "--ar"]), ARGV_VALUES),
)


def _parse_outcome(parse, argv: list[str]):
    """The Namespace `parse` returns, or its exit code, and what it printed."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.sampled_from(["reduce", "run"]), st.sampled_from(["apply", "validate", "frobnicate", "--help"])),
    ARGV_RUNS,
    # Half the argvs hold exact pairs only, so that `reduce` and `run` take the path that plucks them.
    st.sampled_from([ARGV_PLAIN, st.one_of(ARGV_PLAIN, ARGV_SPELLED)]).flatmap(
        lambda others: st.lists(st.tuples(others, ARGV_RUNS), max_size=3)),
    st.booleans(),
)
def test_parse_matches_argparse(command, first_run, rest, complete):
    """`cli._parse` gives what `_build_parser().parse_args` gives, usage
    errors included, whatever the spellings of --db and --arg; mixed
    spellings keep argv order."""
    pieces = [*first_run, *(piece for other, run in rest for piece in (other, *run))]
    argv = [command, *(token for piece in pieces for token in piece)]
    if complete:
        argv += ["--out-dir", "o", "wf.mac"] if command == "run" else ["wf.mac"]
    expected = _parse_outcome(lambda a: cli._build_parser().parse_args(a), argv)
    assert _parse_outcome(cli._parse, argv) == expected


class TestOutputSafety:
    """Input that would forge a log line or a file path fails with exit 1
    before anything is written."""

    JOBS_WORKFLOW = (
        "framework define onGroup configure,make,submit\nattach A\nA define v ::@args:X\n"
        "A oncall configure do configureJob\nA oncall make do makeJob\nA oncall submit do submit\n"
    )

    @pytest.mark.parametrize("line_break", ["\n", "\r", "\u2028"])
    def test_arg_with_a_line_break_is_rejected(self, tmp_path, monkeypatch, capsys, line_break):
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text(self.JOBS_WORKFLOW, encoding="utf-8")
        item = f"X=a{line_break}REDUCE B.y <- forged"
        for argv in (["reduce", "--emit", "provenance", "-o", "out/p.log"],
                     ["reduce", "--emit", "shell", "--out-dir", "out"],
                     ["run", "--out-dir", "out"]):
            assert cli_main([*argv, "--arg", item, "wf.mac"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: --arg {item!r}: a binding may not contain a line break\n"
            assert captured.out == ""
            assert sorted(Path().rglob("*")) == [Path("wf.mac")]

    @pytest.mark.parametrize("argv", [
        ["reduce", "--emit", "shell", "--out-dir", "out"],
        ["reduce", "-o", "r.mac"],
        ["run", "--out-dir", "out"],
    ], ids=["shell", "macro", "run"])
    def test_arg_that_is_not_utf8_is_rejected(self, tmp_path, monkeypatch, capsys, argv):
        # Python hands a non-UTF-8 argv byte over as a lone surrogate, which no output file can encode.
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text(self.JOBS_WORKFLOW, encoding="utf-8")
        item = os.fsdecode(b"X=\xff")
        assert cli_main([*argv, "--arg", item, "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --arg {item!r}: not UTF-8 text\n"
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == [Path("wf.mac")]

    # A document's file name is its id in the log; a kv file's is the origin of its values.
    FORGED_NAME = "a\nREDUCE X.k <- Y.v = forged ctx=b.ctx"

    @staticmethod
    def _named_input(option: str, name: str) -> list[str]:
        """Write file `name`, read as a -c document or a --db file, and a
        workflow whose log names it; return the flags that give it."""
        if option == "-c":
            Path(name).write_text("contextBlock Application=X\n define k fromdoc\nend\n", encoding="utf-8")
            Path("wf.mac").write_text("framework define onGroup t\nattach X\nX define k fromwf\n", encoding="utf-8")
            return ["-c", name]
        Path(name).write_text("k=fromkv\n", encoding="utf-8")
        Path("wf.mac").write_text(
            "framework define preGroup c\nframework define onGroup t\nattach X\nX define k fromwf\n"
            "X oncall c do connectToDatabase\n",
            encoding="utf-8",
        )
        return ["--db", f"Application=X:{name}"]

    @pytest.mark.parametrize("option", ["-c", "--db"])
    def test_file_name_with_a_line_break_is_rejected(self, tmp_path, monkeypatch, capsys, option):
        monkeypatch.chdir(tmp_path)
        flags = self._named_input(option, self.FORGED_NAME)
        inputs = sorted(Path().iterdir())
        commands = [["reduce", "--emit", "provenance", "-o", "p.log"], ["run", "--out-dir", "o"]]
        if option == "-c":
            commands.append(["validate", "--strict-collisions"])
        for argv in commands:
            assert cli_main([*argv, *flags, "wf.mac"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {option} {self.FORGED_NAME!r}: a file name may not contain a line break\n"
            assert captured.out == ""
            assert sorted(Path().iterdir()) == inputs

    @pytest.mark.parametrize("option", ["-c", "--db"])
    def test_file_name_that_is_not_utf8_is_rejected(self, tmp_path, monkeypatch, capsys, option):
        # Python hands a non-UTF-8 byte of a path over as a lone surrogate, which no output file can encode.
        monkeypatch.chdir(tmp_path)
        name = os.fsdecode(b"\xff.ctx" if option == "-c" else b"\xff.kv")
        flags = self._named_input(option, name)
        inputs = sorted(Path().iterdir())
        for argv in (["run", "--out-dir", "o"], ["reduce", "--emit", "provenance", "-o", "p.log"]):
            assert cli_main([*argv, *flags, "wf.mac"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {option} {name!r}: not UTF-8 text\n"
            assert captured.out == ""
            assert sorted(Path().iterdir()) == inputs

    _NAME_PART = st.text(st.characters(codec="utf-8", exclude_characters="/"), max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(_NAME_PART, st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), _NAME_PART)
    def test_kv_file_name_with_a_lone_surrogate_is_rejected(self, before, surrogate, after):
        # _require_line skips its surrogate scan only for ASCII text, which holds none.
        name = before + surrogate + after
        assume(name.splitlines() == [name])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            assert cli_main(["reduce", "--emit", "provenance", "--db", f"Application=X:{name}", "wf.mac"]) == 1
        assert err.getvalue() == f"error: --db {name!r}: not UTF-8 text\n"
        assert out.getvalue() == ""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_element_named_args_is_rejected(self, tmp_path, monkeypatch, capsys, jobs):
        # Its REDUCE events would read as --arg bindings, and a replayed job would look one up.
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text(
            "framework define onGroup configureJob,makeJob,submit\nnamespace add S Application=@args\n"
            "attach @args\n@args define v 1\nattach A\nA define x ::S:v\nA oncall configureJob do configureJob\n"
            "A oncall makeJob do makeJob\nA oncall submit do submit\n",
            encoding="utf-8",
        )
        assert cli_main(["run", "--jobs", jobs, "--out-dir", "out", "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: element name @args is reserved for --arg bindings\n"
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == [Path("wf.mac")]

    @pytest.mark.parametrize("name", ["#x", "framework", "end", "namespace", "contextBlock", "attach"])
    @pytest.mark.parametrize("how", ["workflow", "context", "alias"])
    def test_element_name_that_cannot_start_a_line_is_rejected(self, tmp_path, monkeypatch, capsys, how, name):
        # Printed, "#x define k v" reads back as a comment and "framework define k v" as a group.
        monkeypatch.chdir(tmp_path)
        terminal = f"attach {name}\n" if how == "context" else ""
        attach = {"workflow": f"attach {name}\n", "context": "",
                  "alias": f"namespace add A Application={name}\nattach A\n"}[how]
        Path("c.ctx").write_text(f"{terminal}contextBlock Application=*\ndefine k v\nend\n", encoding="utf-8")
        Path("wf.mac").write_text(f"{attach}attach B\nB define y ::{name}:k\n", encoding="utf-8")
        for command in ("apply", "reduce"):
            assert cli_main([command, "-c", "c.ctx", "wf.mac"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: element name {name}: a macro line cannot start with a keyword or #\n"
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_terminal_named_args_is_rejected(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        Path("t.ctx").write_text("attach @args\n", encoding="utf-8")
        Path("wf.mac").write_text("framework define onGroup configureJob\nattach A\n", encoding="utf-8")
        out_dir = ["--out-dir", "out"] if command == "run" else []
        assert cli_main([command, "-c", "t.ctx", *out_dir, "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: element name @args is reserved for --arg bindings\n"
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == [Path("t.ctx"), Path("wf.mac")]

    @pytest.mark.parametrize("command", ["run", "reduce"])
    def test_element_name_with_a_backslash_is_rejected(self, tmp_path, monkeypatch, capsys, command):
        # dash's echo expands backslash escapes: "echo run 'a\cb'" prints "run a".
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text("framework define onGroup configure\nattach A\nattach a\\cb\n", encoding="utf-8")
        emit = ["--emit", "shell"] if command == "reduce" else []
        assert cli_main([command, *emit, "--out-dir", "out", "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: element 'a\\\\cb': echo would not print a backslash as written, cannot write its script\n"
        )
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == [Path("wf.mac")]

    @pytest.mark.parametrize("name", ["a/b", "/../../escaped", "a\0b"])
    @pytest.mark.parametrize("command", ["run", "reduce"])
    def test_element_name_that_is_not_a_file_name(self, tmp_path, monkeypatch, capsys, command, name):
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text(f"framework define onGroup configure\nattach A\nattach {name}\n", encoding="utf-8")
        # With out/sub/0_ present, "0_/../../escaped.sh" would land in out/.
        Path("out/sub/0_").mkdir(parents=True)
        emit = ["--emit", "shell"] if command == "reduce" else []
        assert cli_main([command, *emit, "--out-dir", "out/sub", "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: element {name!r}: not a file name, cannot write its script\n"
        assert captured.out == ""
        assert [p for p in Path().rglob("*") if p.is_file()] == [Path("wf.mac")]

    @pytest.mark.parametrize("command", ["run", "reduce"])
    def test_value_with_a_nul_byte_is_rejected(self, tmp_path, monkeypatch, capsys, command):
        # sh drops a NUL byte when it sources a script, so the export would differ.
        monkeypatch.chdir(tmp_path)
        Path("c.ctx").write_text("attach DB\n", encoding="utf-8")
        Path("db.kv").write_bytes(b"k=a\0b\n")
        Path("wf.mac").write_text(
            "framework define preGroup contactDB\nframework define onGroup configure,make\n"
            "DB oncall contactDB do connectToDatabase\nattach A\nA define v ::DB:k\n"
            "A oncall configure do configureJob\nA oncall make do makeJob\n",
            encoding="utf-8",
        )
        inputs = sorted(Path().iterdir())
        emit = ["--emit", "shell"] if command == "reduce" else []
        argv = [command, *emit, "-c", "c.ctx", "--db", "Database=DB:db.kv", "--out-dir", "out", "wf.mac"]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: attribute A.v: a NUL byte cannot pass through sh\n"
        assert captured.out == ""
        assert sorted(Path().rglob("*")) == inputs

    def test_value_with_a_nul_byte_in_the_last_job_only_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # The scripts stream to disk, but every job is checked before the first is written.
        def late_nul(ctx):
            framework.configure_job(ctx)
            if ctx.iteration == 2:
                ctx.state.set_attribute(ctx.element, "v", "a\0b")

        real_builtins = framework.builtin_handlers
        monkeypatch.setattr(framework, "builtin_handlers", lambda: {**real_builtins(), "configureJob": late_nul})
        monkeypatch.chdir(tmp_path)
        Path("wf.mac").write_text(
            "framework define onGroup configure,make\nattach A\nattach B\nA define v plain\nB define w ::A:v\n"
            + "".join(f"{el} oncall configure do configureJob\n{el} oncall make do makeJob\n" for el in "AB"),
            encoding="utf-8",
        )
        assert cli_main(["run", "--jobs", "3", "--out-dir", "out", "wf.mac"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: attribute A.v: a NUL byte cannot pass through sh\n"
        assert captured.out == ""
        assert [p for p in Path().rglob("*") if p.is_file()] == [Path("wf.mac")]


# -- differential property over generated inputs ------------------------------
#
# Workflows define preGroup and onGroup in either order and bind
# connectToDatabase only to the preGroup task, so `run --jobs 1` and `reduce`
# do the same work apart from jobIndex. No key is jobIndex: run overwrites it
# unrecorded.

KEYS = ["k", "v", "x", "é"]
PATTERNS = ["Application=A", "Application=*", "Database=DB1", "Database=DB1,DB2", "Application=Z"]
# Hostile text: spaces, "::", command substitution, non-ASCII, empty.
HOSTILE = ["", " ", "a b", "::", "::A:k", ":;x", "$(echo pwned)", "`id`", "'", '"', "\\", "é€", "x=y", "#", "-v"]
VALUES = ["lit", "$(id)", "é", "'q'", "a;b", "::A:k", "::B:v", "::DB1:k", "::DB2:x", "::@args:x", "::@args:k", "::Al:v"]
# Each choice that fails at once (a malformed reference, an unknown element
# or handler, a bad key) is drawn a quarter as often as each other choice,
# so that many examples get as far as reduction.
values = st.sampled_from(VALUES * 4 + ["::", "::A:", ":;x"])
subjects = st.sampled_from(["A", "B", "DB1", "DB2"] * 4 + ["C", "Al"])
hostile = st.sampled_from(HOSTILE) | st.text(st.sampled_from(" :$()'\"\\=#;é€xA-"), max_size=6)
keys = st.sampled_from(KEYS)
patterns = st.sampled_from(PATTERNS)
verbs = st.one_of(
    st.builds("define {} {}".format, keys, values),
    st.builds("add dependency {}".format, patterns),
    st.sampled_from([
        "oncall contactDB do connectToDatabase", "oncall configure do configureJob",
        "oncall make do makeJob", "oncall submitJobs do submit",
    ] * 4 + ["oncall configure do nope"]),
    st.builds("namespace add {} {}".format, st.sampled_from(["Al", "A"]), patterns),
    st.builds("check {} {}".format, keys, values),
)
workflow_lines = st.one_of(
    st.builds("attach {}".format, st.sampled_from(["C", "Al"])),
    st.builds("{} adddep {}".format, subjects, subjects),
    st.builds("{} {}".format, subjects, verbs),
    st.builds("{} {}".format, subjects, verbs),
    st.builds("namespace add {} {}".format, st.sampled_from(["Al", "A"]), patterns),
)
blocks = st.builds(
    lambda header, body: "\n".join([f"contextBlock {header}", *body, "end"]),
    patterns, st.lists(verbs, max_size=4),
)
kv_lines = st.builds("{}={}".format, st.sampled_from(KEYS * 4 + ["a b", "::x", ""]), hostile)
arg_items = st.builds("--arg={}={}".format, st.sampled_from(["x", "k"] * 4 + [""]), hostile)


def _scripts(out_dir: Path) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.glob("*.sh"))}


def _assert_sources_back(script: Path) -> None:
    """Sourcing `script` with ``sh`` sets each exported variable to exactly
    the word that `shlex.split` reads from its export line, and the closing
    line prints the element name."""
    exports = dict(
        shlex.split(line)[1].split("=", 1)
        for line in script.read_text(encoding="utf-8").split("\n") if line.startswith("export ")
    )
    show = "".join(f'printf "%s\\0" "${key}"; ' for key in exports)
    sourced = subprocess.run(["sh", "-c", f'. "./$1"; {show}', "sh", script.name],
                             cwd=script.parent, capture_output=True, check=True)
    expected = f"run {script.stem.split('_', 1)[1]}\n" + "".join(f"{value}\0" for value in exports.values())
    assert sourced.stdout == expected.encode()


def _write_differential_inputs(tmp: Path, lines, ctx_blocks, kv, args, pre_first) -> tuple[list[str], list[str]]:
    """Write a generated workflow, context and kv file into `tmp`, with
    preGroup defined before onGroup or after it; return the input arguments
    and the --db/--arg flags."""
    groups = ["framework define preGroup contactDB", "framework define onGroup configure,make,submitJobs"]
    workflow = [*(groups if pre_first else groups[::-1]), "attach A", "attach B", *lines]
    (tmp / "wf.mac").write_text("\n".join(workflow) + "\n", encoding="utf-8")
    (tmp / "c.ctx").write_text("\n".join(["attach DB1", "attach DB2", *ctx_blocks]) + "\n", encoding="utf-8")
    (tmp / "db.kv").write_text("\n".join(kv) + "\n", encoding="utf-8")
    return ["-c", str(tmp / "c.ctx"), str(tmp / "wf.mac")], ["--db", f"Database=DB1:{tmp / 'db.kv'}", *args]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(workflow_lines, max_size=12),
    st.lists(blocks, max_size=3),
    st.lists(kv_lines, max_size=4),
    st.lists(arg_items, max_size=3),
    st.booleans(),
)
def test_cli_differential(lines, ctx_blocks, kv, args, pre_first):
    """Every command exits 0-3 without raising; a reduced macro re-parses;
    `reduce --emit shell` and `run --jobs 1` write the same scripts, apart
    from run's `export jobIndex=0`; `sh` reads back every value that run's
    scripts export."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        inputs, values_flags = _write_differential_inputs(tmp, lines, ctx_blocks, kv, args, pre_first)
        codes = {
            "apply": cli_main(["apply", *inputs]),
            "validate": cli_main(["validate", *inputs]),
            "strict": cli_main(["validate", "--strict-collisions", *inputs]),
            "macro": cli_main(["reduce", *inputs, *values_flags, "-o", str(tmp / "r.mac")]),
            "shell": cli_main(["reduce", *inputs, *values_flags, "--emit", "shell", "--out-dir", str(tmp / "r")]),
            "run": cli_main(["run", *inputs, *values_flags, "--jobs", "1", "--out-dir", str(tmp / "u")]),
        }
        assert all(code in (0, 1, 2, 3) for code in codes.values()), codes
        if codes["macro"] == 0:
            cf.parse_workflow((tmp / "r.mac").read_text(encoding="utf-8"))
        assert (codes["shell"] == 0) == (codes["run"] == 0), codes
        if codes["shell"] == 0:
            run_scripts = {name: text.replace("export jobIndex=0\n", "") for name, text in _scripts(tmp / "u").items()}
            assert _scripts(tmp / "r") == run_scripts
            for script in sorted((tmp / "u").glob("*.sh")):
                _assert_sources_back(script)


# Values that also read a jobIndex, which differs from job to job. A and B
# bind configureJob and makeJob, so that a run of several jobs takes the
# replay path unless configureJob is wrapped. Every slot a value may read
# starts as a literal, and the other lines name only these elements, so that
# most runs get as far as the jobs.
ELEMENTS = ["A", "B", "DB1", "DB2"]
job_values = st.sampled_from(
    [value for value in VALUES if value != "::Al:v"]
    + [f"::{el}:{key}" for el in ELEMENTS for key in ["k", "v", "x"] + ["jobIndex"] * 3]
)
job_keys = st.sampled_from(["k", "v", "x"])
job_lines = st.one_of(
    *[st.builds("{} define {} {}".format, st.sampled_from(ELEMENTS), job_keys, job_values)] * 6,
    st.sampled_from([
        "DB1 oncall contactDB do connectToDatabase", "A oncall submitJobs do submit", "B oncall submitJobs do submit",
        "A add dependency Database=DB1", "B add dependency Application=A",
    ]),
)
job_blocks = st.builds(
    lambda header, body: "\n".join([f"contextBlock {header}", *body, "end"]),
    patterns, st.lists(st.builds("define {} {}".format, job_keys, job_values), max_size=4),
)
JOB_PRELUDE = [f"{el} oncall {task} do {task}Job" for el in "AB" for task in ("configure", "make")] + [
    f"{el} define {key} {el}-{key}" for el in ELEMENTS for key in "kvx"
]


def _files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(job_lines, min_size=3, max_size=12),
    st.lists(job_blocks, max_size=2),
    st.lists(kv_lines, max_size=4),
    st.lists(arg_items, max_size=3),
    st.booleans(),
)
def test_replayed_run_equals_general_run(lines, ctx_blocks, kv, args, pre_first):
    """`run --jobs 3` exits with the same code, the same stderr and the same
    out dir bytes on the replay path as on the general path."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        inputs, values_flags = _write_differential_inputs(tmp, JOB_PRELUDE + lines, ctx_blocks, kv,
                                                          ["--arg=x=ax", "--arg=k=ak", *args], pre_first)
        outcomes = []
        for path in ("replay", "general"):
            with pytest.MonkeyPatch.context() as monkeypatch, redirect_stderr(io.StringIO()) as err:
                _force_job_path(monkeypatch, path)
                code = cli_main(["run", *inputs, *values_flags, "--jobs", "3", "--out-dir", str(tmp / path)])
            outcomes.append((code, err.getvalue(), _files(tmp / path)))
        assert outcomes[0] == outcomes[1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(workflow_lines, max_size=12),
    st.lists(blocks, max_size=3),
    st.lists(kv_lines, max_size=4),
    st.lists(arg_items, max_size=3),
    st.booleans(),
)
def test_apply_output_replays(lines, ctx_blocks, kv, args, pre_first):
    """When `apply` exits 0, its output is an `apply` fixpoint, and `reduce`
    of it with the same --db and --arg and no -c exits as `reduce` of the
    inputs does; when both exit 0 their REDUCE lines are equal but for ctx=,
    and the reduced macro replays to its own bytes."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        inputs, values_flags = _write_differential_inputs(tmp, lines, ctx_blocks, kv, args, pre_first)
        expanded = tmp / "expanded.mac"
        if cli_main(["apply", *inputs, "-o", str(expanded)]) != 0:
            return
        assert cli_main(["apply", str(expanded), "-o", str(tmp / "again.mac")]) == 0
        assert (tmp / "again.mac").read_bytes() == expanded.read_bytes()
        logs = [tmp / "original.log", tmp / "replayed.log"]
        codes = [
            cli_main(["reduce", *inputs, *values_flags, "--emit", "provenance", "-o", str(logs[0])]),
            cli_main(["reduce", *values_flags, "--emit", "provenance", "-o", str(logs[1]), str(expanded)]),
        ]
        assert codes[0] == codes[1]
        if codes[0] == 0:
            original, replayed = (
                [line for line in _without_ctx(log.read_text(encoding="utf-8")) if line.startswith("REDUCE ")]
                for log in logs
            )
            assert original == replayed
        reduced = tmp / "reduced.mac"
        if cli_main(["reduce", *inputs, *values_flags, "-o", str(reduced)]) == 0:
            assert cli_main(["reduce", *values_flags, "-o", str(tmp / "rereduced.mac"), str(reduced)]) == 0
            assert (tmp / "rereduced.mac").read_bytes() == reduced.read_bytes()


# -- every job value through sh ------------------------------------------------
#
# Both applications bind configureJob and makeJob, so every value they hold
# reaches run's scripts. A value is a macro literal, a .kv value, an --arg
# value, or (for B) a copy of one of A's values.

# No line breaks: a .kv value and an --arg binding cannot hold one. NUL is rare.
JOB_TEXT = list(" \t$`'\"\\()=#;:é€x-") * 8 + ["\0"]
literals = st.text(st.sampled_from([ch for ch in JOB_TEXT if not ch.isspace()]), min_size=1, max_size=6).filter(
    lambda text: not text.startswith(("::", ":;"))
)
texts = st.text(st.sampled_from(JOB_TEXT), max_size=6)
a_values = st.one_of(st.tuples(st.just("literal"), literals), st.tuples(st.sampled_from(["kv", "arg"]), texts))
b_values = a_values | st.tuples(st.just("copy"), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(a_values, min_size=1, max_size=4), st.lists(b_values, max_size=4), st.integers(1, 2))
def test_run_scripts_export_every_job_value(a, b, jobs):
    """`run` writes one script per application and job, and sourcing it with
    ``sh`` sets jobIndex and each value byte for byte; a value holding NUL
    is exit 1, naming the first such slot, with no script written."""
    workflow = [
        "framework define preGroup contactDB", "framework define onGroup configure,make",
        "DB oncall contactDB do connectToDatabase",
    ]
    kv, args, expected = [], [], {}
    for name, values in (("A", a), ("B", b)):
        workflow += [f"attach {name}", f"{name} oncall configure do configureJob", f"{name} oncall make do makeJob"]
        expected[name] = {}
        for i, (kind, data) in enumerate(values):
            key, slot = f"k{i}", f"{name}_k{i}"
            if kind == "literal":
                workflow.append(f"{name} define {key} {data}")
                expected[name][key] = data
            elif kind == "kv":
                workflow.append(f"{name} define {key} ::DB:{slot}")
                kv.append(f"{slot}={data}")
                expected[name][key] = data.rstrip()  # a .kv line is stripped
            elif kind == "arg":
                workflow.append(f"{name} define {key} ::@args:{slot}")
                args.append(f"--arg={slot}={data}")
                expected[name][key] = data
            else:
                source = f"k{data % len(a)}"
                workflow.append(f"{name} define {key} ::A:{source}")
                expected[name][key] = expected["A"][source]
    nul_slots = [f"{name}.{key}" for name in "AB" for key, value in expected[name].items() if "\0" in value]
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        tmp = Path(tmp)
        (tmp / "wf.mac").write_text("\n".join(workflow) + "\n", encoding="utf-8")
        (tmp / "c.ctx").write_text("attach DB\n", encoding="utf-8")
        (tmp / "db.kv").write_text("".join(line + "\n" for line in kv), encoding="utf-8")
        out = tmp / "out"
        code = cli_main(["run", "-c", str(tmp / "c.ctx"), "--db", f"Database=DB:{tmp / 'db.kv'}", *args,
                         "--jobs", str(jobs), "--out-dir", str(out), str(tmp / "wf.mac")])
        if nul_slots:
            assert code == 1
            assert err.getvalue() == f"error: attribute {nul_slots[0]}: a NUL byte cannot pass through sh\n"
            assert not out.exists()
            return
        assert (code, err.getvalue()) == (0, "")
        scripts = sorted(out.glob("*.sh"))
        assert [p.name for p in scripts] == [f"{job}_{name}.sh" for job in range(jobs) for name in "AB"]
        for script in scripts:
            job, name = script.stem.split("_")
            exports = {"jobIndex": job, **expected[name]}
            assert [line.split("=", 1)[0] for line in script.read_text(encoding="utf-8").splitlines()[1:-1]] == [
                f"export {key}" for key in sorted(exports)
            ]
            show = "".join(f'printf "%s\\0" "${key}"; ' for key in exports)
            sourced = subprocess.run(["sh", "-c", f'. "./$1" >/dev/null; {show}', "sh", script.name],
                                     cwd=out, capture_output=True, check=True)
            assert sourced.stdout == "".join(f"{value}\0" for value in exports.values()).encode()
