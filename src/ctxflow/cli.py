"""Command-line driver: parse, load contexts, attach, reduce, run, emit.

Each subcommand runs its stages in turn: load, bind ``--arg``, the framework,
the checks, the strict collision gate, emit and write. The gate comes after
the last stage that can shadow a value and before any output is written. A
stage fails by raising; ``cli_main`` maps the error to an exit code: 1 syntax
or semantic error, 2 cycle, 3 collision under ``--strict-collisions``.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import macro
from .emit import emit_dag, emit_macro, emit_manifest, emit_provenance, emit_shell
from .errors import CollisionError, CtxflowError, CycleError, DependencyCycleError, HandlerError
from .framework import DispatchTrace, dependency_order, run_framework, run_pregroup, snapshot
from .linker import Linker
from .model import Description, FlowRef
from .reduction import check_acyclic, eval_checks, reduce_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CYCLE = 2
EXIT_COLLISION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxflow", description="context-driven workflow configuration")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("workflow", help="workflow document (.mac)")
    common.add_argument("-c", "--context", action="append", default=[], metavar="CTX",
                        help="context document, loaded in the order given (repeatable)")
    common.add_argument("--strict-collisions", action="store_true",
                        help="treat any metadata collision as a hard error")
    values = argparse.ArgumentParser(add_help=False)
    values.add_argument("--db", action="append", default=[], metavar="DESC:FILE",
                        help="kv source, e.g. Database=RefDB:refdb.kv (repeatable)")
    values.add_argument("--arg", action="append", default=[], metavar="K=V",
                        help="binding for @args flows (repeatable)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", parents=[common], help="load contexts and expand the workflow")
    p_apply.add_argument("--emit", choices=["macro", "dag"], default="macro")
    p_apply.add_argument("-o", "--output", metavar="PATH", help="output file (default stdout)")

    p_reduce = sub.add_parser("reduce", parents=[common, values],
                              help="expand, connect sources, and reduce every flow")
    p_reduce.add_argument("--emit", choices=["macro", "shell", "provenance"], default="macro")
    p_reduce.add_argument("-o", "--output", metavar="PATH",
                          help="output file for --emit macro or provenance (default stdout)")
    p_reduce.add_argument("--out-dir", metavar="DIR",
                          help="directory for the scripts; only --emit shell uses it (default: the current directory)")

    p_run = sub.add_parser("run", parents=[common, values], help="full framework run; write job outputs")
    p_run.add_argument("--jobs", type=int, default=1, metavar="N", help="onGroup iterations (default 1)")
    p_run.add_argument("--out-dir", required=True, metavar="DIR")

    sub.add_parser("validate", parents=[common], help="check cycles and sources without reading values; its "
                   "collision gate sees only collisions made while loading, not .kv or preGroup shadowing")
    return parser


def _require_line(option: str, text: str, what: str) -> None:
    """`text` goes into the log or an output file: it must be one line of
    UTF-8 text (an empty one passes, for the read to fail on its own)."""
    if text.splitlines() not in ([], [text]):
        raise CtxflowError(f"{option} {text!r}: {what} may not contain a line break")
    if not text.isascii() and any("\ud800" <= ch <= "\udfff" for ch in text):
        raise CtxflowError(f"{option} {text!r}: not UTF-8 text")


def _load_state(ns) -> Linker:
    specs = getattr(ns, "db", [])
    kv_paths = [Path(spec.partition(":")[2]) for spec in specs]
    # A document's file name is its id in the log, a kv file's the origin of its values.
    for path in ns.context:
        _require_line("-c", Path(path).name, "a file name")
    for kv_path in kv_paths:
        _require_line("--db", kv_path.name, "a file name")
    state = Linker()
    for path in ns.context:
        state.load_context(macro.parse_context(macro.read_text(path), Path(path).name))
    for spec, kv_path in zip(specs, kv_paths):
        desc_text, sep, _ = spec.partition(":")
        if not sep:
            raise CtxflowError(f"--db expects DESC:FILE, got {spec!r}")
        try:
            description = Description.parse(desc_text)
        except ValueError as exc:
            raise CtxflowError(f"--db {spec!r}: {exc}") from exc
        state.add_kv_source(macro.KvSource(description, kv_path))
    state.run_statements(macro.parse_workflow(macro.read_text(ns.workflow)))
    return state


def _args_binding(ns) -> dict[str, str]:
    binding: dict[str, str] = {}
    for item in getattr(ns, "arg", []):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise CtxflowError(f"--arg expects K=V, got {item!r}")
        _require_line("--arg", item, "a binding")
        binding[key] = value
    return binding


def _collision_gate(ns, state: Linker) -> None:
    if ns.strict_collisions and (collisions := state.detect_collisions()):
        raise CollisionError(collisions)


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    elif sys.stdout is None:
        raise CtxflowError("stdout is closed; give -o PATH")
    else:
        sys.stdout.write(text)


def _write_files(out_dir: str, files: list[tuple[str, str]]) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        (path / name).write_text(text, encoding="utf-8")


def _cmd_apply(ns) -> int:
    state = _load_state(ns)
    _collision_gate(ns, state)
    _write(emit_macro(state) if ns.emit == "macro" else emit_dag(state), ns.output)
    return EXIT_OK


def _cmd_reduce(ns) -> int:
    if ns.emit == "shell" and ns.output:
        raise CtxflowError("--emit shell writes one script per application; give --out-dir DIR, not -o")
    state = _load_state(ns)
    args = _args_binding(ns)
    run_pregroup(state, args)
    reduce_all(state, args)
    eval_checks(state, args)
    _collision_gate(ns, state)
    if ns.emit == "shell":
        # No job iterations ran; emit one script set from the reduced state.
        _write_files(ns.out_dir or ".", emit_shell(state, DispatchTrace(snapshots={0: snapshot(state)})))
    else:
        _write(emit_macro(state) if ns.emit == "macro" else "".join(emit_provenance(state)), ns.output)
    return EXIT_OK


def _cmd_run(ns) -> int:
    if ns.jobs < 1:
        raise CtxflowError("--jobs must be at least 1")
    state = _load_state(ns)
    args = _args_binding(ns)
    trace = run_framework(state, n_jobs=ns.jobs, args=args)
    eval_checks(state, args)
    _collision_gate(ns, state)
    # Each output is emitted after the one before is written, so no two are
    # held at once. The two logs stream line by line into their files, so
    # neither is ever held whole; the scripts are all built before the first
    # is written, so that a value no script can hold writes none of them.
    _write_files(ns.out_dir, emit_shell(state, trace))
    for name, lines in (("manifest.log", emit_manifest(trace)), ("provenance.log", emit_provenance(state))):
        with (Path(ns.out_dir) / name).open("w", encoding="utf-8") as out:
            out.writelines(lines)
    return EXIT_OK


def _cmd_validate(ns) -> int:
    state = _load_state(ns)
    check_acyclic(state)
    dependency_order(state)
    for check in state.checks:
        if isinstance(check.value, FlowRef):
            state.source_of(state.elements[check.element], check.value)
    _collision_gate(ns, state)
    _write(f"ok: {len(state.elements)} elements, {state.flow_count()} flows, "
           f"{len(state.detect_collisions())} collisions\n", None)
    return EXIT_OK


_COMMANDS = {"apply": _cmd_apply, "reduce": _cmd_reduce, "run": _cmd_run, "validate": _cmd_validate}
# The repeatable options of `reduce` and `run`, which may come in the hundreds.
_PAIRED = ("--db", "--arg")


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_build_parser().parse_args(argv)`, in time linear in the `--db` and
    `--arg` pairs, where argparse's own parse is quadratic in argv.

    Of each run of consecutive exact pairs `--db V` / `--arg V` before any
    `--`, argparse sees the first pair only, so it sees the same shape (`-o
    --db X` still lacks a value); the values of every pair then make up
    `ns.db` and `ns.arg`, in argv order. If argv spells either option any
    other way (`--db=V`, `--ar V`, or a value that starts with `-`), the
    whole argv goes to argparse.
    """
    parser = _build_parser()
    if not argv or argv[0] not in ("reduce", "run"):
        return parser.parse_args(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    plucked: dict[str, list[str]] = {option: [] for option in _PAIRED}
    kept, i, in_run = argv[:1], 1, False
    while i < end:
        if argv[i] in _PAIRED and i + 1 < end and not argv[i + 1].startswith("-"):
            plucked[argv[i]].append(argv[i + 1])
            if not in_run:
                kept += argv[i:i + 2]
            i, in_run = i + 2, True
        elif argv[i].startswith(("--d", "--a")):
            # A token that argparse could read as one of these options.
            return parser.parse_args(argv)
        else:
            kept.append(argv[i])
            i, in_run = i + 1, False
    ns = parser.parse_args(kept + argv[end:])
    for option, values in plucked.items():
        setattr(ns, option[2:], values)
    return ns


def _report(message: str) -> None:
    # A stream whose descriptor was closed is None, and print(file=None)
    # would write the report to stdout.
    if sys.stderr is not None:
        print(message, file=sys.stderr)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for cycles
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_ERROR if code else EXIT_OK
    try:
        return _COMMANDS[ns.command](ns)
    except CollisionError as exc:
        _report(str(exc))
        return EXIT_COLLISION
    except (CtxflowError, OSError) as exc:
        _report(f"error: {exc}")
        # A cycle met inside a handler (configureJob reduces flows) is still a cycle.
        cause = exc.cause if isinstance(exc, HandlerError) else exc
        return EXIT_CYCLE if isinstance(cause, (CycleError, DependencyCycleError)) else EXIT_ERROR


def main() -> None:
    # Everything a command allocates lives until exit, so a cyclic collection frees nothing.
    gc.disable()
    # stdout gets the bytes that -o writes, whatever encoding the locale gave it,
    # and stderr names what the input named. Given an encoding, errors= would
    # default to strict. A stream whose descriptor was closed is None.
    if sys.stdout is not None:
        sys.stdout.reconfigure(encoding="utf-8")
    if sys.stderr is not None:
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    code = cli_main()
    # Shutdown collects even with the collector disabled, and would walk every
    # object the command left for nothing; frozen objects are not walked.
    # atexit handlers and the rest of the teardown still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
