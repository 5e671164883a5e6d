"""Seeded workload generators and the oracles that check their outputs.

Each generator writes a workflow, its context documents and any kv files,
and returns a Workload: the CLI arguments to run, the output files to check
and an oracle. The oracle is built from what the generator itself decided
(every literal, alias, dependency edge and flow), never from ctxflow, so a
bug in the program cannot make its own output look right.

The same seed gives byte-identical inputs. Sizes and the number of every
kind of statement are fixed per workload, so each seed asks for the same
amount of work; the seed only changes which elements are wired to which,
and the values.
"""

from __future__ import annotations

import os
import random
import re
import shlex
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_ALPHABET = string.ascii_letters + string.digits
# shlex.split only treats quotes and backslashes specially once comments are
# off; a line without them splits exactly like str.split, and much faster.
_SHELL_SPECIAL = re.compile(r"""['"\\]""")


def _token(rng: random.Random, n: int = 8) -> str:
    return "".join(rng.choices(_ALPHABET, k=n))


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _shell_words(line: str) -> list[str]:
    return shlex.split(line) if _SHELL_SPECIAL.search(line) else line.split()


@dataclass
class Workload:
    """One generated input set and the check of what the CLI made of it.

    `argv` holds the ctxflow arguments, with paths relative to the run
    directory. `check(run_dir)` returns a list of problems, empty when the
    outputs are right.
    """

    name: str
    argv: list[str]
    files: dict[str, str]
    sizes: dict[str, int]
    check: Callable[[Path], list[str]]

    def write_inputs(self, run_dir: Path) -> None:
        for rel, text in self.files.items():
            path = run_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def reset_outputs(self, run_dir: Path) -> None:
        out = run_dir / "out"
        if out.exists():
            for entry in os.scandir(out):
                os.unlink(entry.path)
        else:
            out.mkdir(parents=True)


def _scaled(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(base * scale))


# -- expand_dag ------------------------------------------------------------


def expand_dag(seed: int, scale: float = 1.0) -> Workload:
    """`apply --emit dag`: block matching in both directions, pattern and
    explicit dependencies, no flows."""
    rng = random.Random(f"expand_dag/{seed}")
    n_apps = _scaled(550, scale, 50)
    n_terms = _scaled(110, scale, 6)
    n_db_blocks = _scaled(55, scale, 2)
    n_app_blocks = _scaled(130, scale, 3)
    apps = [f"A{i:04d}" for i in range(n_apps)]
    terms = [f"T{i:03d}" for i in range(n_terms)]
    parents: dict[str, set[str]] = {app: set() for app in apps}

    terminal_doc = [f"attach {t}" for t in terms]

    # Loaded after the terminals exist, so every block is retro-matched.
    db_doc: list[str] = []
    for block in range(n_db_blocks):
        members = rng.sample(terms, k=2 + block % 4)
        db_doc.append(f"contextBlock Database={','.join(members)}")
        for _ in range(1 + block % 3):
            db_doc.append(f"  define db{rng.randrange(6)} {_token(rng)}")
        db_doc.append("end")

    # Loaded before the workflow attaches anything, so every block is
    # forward-matched at attach. Dependencies always point at lower indices,
    # which keeps the graph acyclic.
    app_doc: list[str] = []
    window = min(40, n_apps // 4)
    for block in range(n_app_blocks):
        lo = rng.randrange(window, n_apps - window + 1)
        members = rng.sample(apps[lo:lo + window], k=3 + block % 6)
        app_doc.append(f"contextBlock Application={','.join(members)}")
        app_doc.append(f"  define stage s{block}")
        if block % 10 < 3:
            app_doc.append(f"  define site {_token(rng, 4)}")
        lower = apps[max(0, lo - 200):lo]
        for d in range(1 + block % 2):
            # One pattern in five names a single application, which also
            # registers that name as an alias.
            targets = rng.sample(lower, k=(1, 2, 3, 2, 3)[(block + d) % 5])
            app_doc.append(f"  add dependency Application={','.join(targets)}")
            for member in members:
                parents[member].update(targets)
        if block % 10 >= 7:
            # Terminal dependencies order elements but are not DAG arrows.
            app_doc.append(f"  add dependency Database={rng.choice(terms)}")
        app_doc.append("end")

    workflow: list[str] = []
    for i, app in enumerate(apps):
        workflow.append(f"attach {app}")
        if i and i % 5 < 3:
            for j in rng.sample(range(max(0, i - 100), i), k=min(i, 1 + i % 2)):
                workflow.append(f"{app} adddep {apps[j]}")
                parents[app].add(apps[j])
        if i % 10 < 3:
            workflow.append(f"{app} define note {_token(rng)}")

    files = {
        "in/terminals.ctx": _lines(terminal_doc),
        "in/databases.ctx": _lines(db_doc),
        "in/applications.ctx": _lines(app_doc),
        "in/workflow.mac": _lines(workflow),
    }
    argv = [
        "apply", "--emit", "dag", "-o", "out/dag.txt",
        "-c", "in/terminals.ctx", "-c", "in/databases.ctx", "-c", "in/applications.ctx",
        "in/workflow.mac",
    ]
    sizes = {
        "applications": n_apps,
        "terminals": n_terms,
        "blocks": n_db_blocks + n_app_blocks,
        "edges": sum(len(p) for p in parents.values()),
    }

    def check(run_dir: Path) -> list[str]:
        return check_dag((run_dir / "out/dag.txt").read_text(encoding="utf-8"), apps, parents)

    return Workload("expand_dag", argv, files, sizes, check)


def check_dag(text: str, apps: list[str], parents: dict[str, set[str]]) -> list[str]:
    """The job set, the edge set, and that the job order is topological."""
    errors: list[str] = []
    position: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    for line in text.splitlines():
        words = line.split()
        if len(words) == 3 and words[0] == "JOB" and words[2] == words[1] + ".sub":
            if words[1] in position:
                errors.append(f"duplicate job {words[1]}")
            position[words[1]] = len(position)
        elif len(words) == 4 and words[0] == "PARENT" and words[2] == "CHILD":
            edge = (words[1], words[3])
            if edge in edges:
                errors.append(f"duplicate edge {line}")
            edges.add(edge)
        else:
            errors.append(f"unexpected line {line!r}")
    if set(position) != set(apps):
        errors.append(f"job set differs: {len(set(apps) - set(position))} missing, "
                      f"{len(set(position) - set(apps))} extra")
    expected = {(p, c) for c, ps in parents.items() for p in ps}
    if edges != expected:
        errors.append(f"edge set differs: {len(expected - edges)} missing, {len(edges - expected)} extra")
    for p, c in edges:
        if p in position and c in position and position[p] >= position[c]:
            errors.append(f"job order puts {c} before its parent {p}")
            break
    return errors


# -- reduce_catalog --------------------------------------------------------


def reduce_catalog(seed: int, scale: float = 1.0) -> Workload:
    """`reduce --emit provenance`: one kv file per terminal, flows through
    aliases, terminal names, application chains and @args, plus checks."""
    rng = random.Random(f"reduce_catalog/{seed}")
    n_terms = _scaled(600, scale, 4)
    n_apps = _scaled(120, scale, 3)
    n_slots, n_keys, n_args = 10, 8, 10
    terms = [f"C{i:04d}" for i in range(n_terms)]
    aliases = {t: f"cat{i:04d}" for i, t in enumerate(terms)}
    apps = [f"A{i:03d}" for i in range(n_apps)]
    args = {f"a{i}": _token(rng) for i in range(n_args)}
    kv = {t: {f"k{j}": _token(rng) for j in range(n_keys)} for t in terms}

    n_flows = n_apps * n_slots
    kinds = ["alias"] * (n_flows * 6 // 10) + ["name"] * (n_flows * 2 // 10)
    kinds += ["chain"] * ((n_flows - len(kinds)) * 3 // 4)
    kinds += ["args"] * (n_flows - len(kinds))
    rng.shuffle(kinds)

    # (element, attribute) -> (source element, source attribute, value, doc)
    expected: dict[tuple[str, str], tuple[str, str, str, str]] = {}
    refs: dict[tuple[str, str], str] = {}
    app_doc: list[str] = []
    workflow: list[str] = []
    for i, app in enumerate(apps):
        workflow.append(f"attach {app}")
        block: list[str] = []
        for s in range(n_slots):
            kind = kinds[i * n_slots + s]
            slot = (app, f"p{s}")
            # Every other application gets half its flows from a block.
            doc = "apps.ctx" if i % 2 == 0 and s < n_slots // 2 else "workflow"
            if kind == "chain" and i == 0:
                kind = "args"
            if kind in ("alias", "name"):
                term = rng.choice(terms)
                key = f"k{rng.randrange(n_keys)}"
                refs[slot] = f"::{aliases[term] if kind == 'alias' else term}:{key}"
                expected[slot] = (term, key, kv[term][key], doc)
            elif kind == "chain":
                source = (apps[rng.randrange(i)], f"p{rng.randrange(n_slots)}")
                refs[slot] = f"::{source[0]}:{source[1]}"
                expected[slot] = (source[0], source[1], expected[source][2], doc)
            else:
                key = rng.choice(sorted(args))
                refs[slot] = f"::@args:{key}"
                expected[slot] = ("@args", key, args[key], doc)
            if doc == "apps.ctx":
                block.append(f"  define p{s} {refs[slot]}")
            else:
                workflow.append(f"{app} define p{s} {refs[slot]}")
        if block:
            app_doc += [f"contextBlock Application={app}", *block, "end"]

    catalog = ["framework define preGroup contactDB"]
    catalog += [f"attach {t}" for t in terms]
    catalog += ["contextBlock Database=*", "  oncall contactDB do connectToDatabase", "end"]
    catalog += [f"namespace add {aliases[t]} Database={t}" for t in terms]

    for n, slot in enumerate(rng.sample(sorted(expected), k=min(10, len(expected)))):
        app, attr = slot
        # Half compare against a literal, half against the same reference.
        value = expected[slot][2] if n % 2 else refs[slot]
        workflow.append(f"{app} check {attr} {value}")

    files = {
        "in/catalog.ctx": _lines(catalog),
        "in/apps.ctx": _lines(app_doc),
        "in/workflow.mac": _lines(workflow),
    }
    files.update({f"in/{t}.kv": _lines([f"{k}={v}" for k, v in kv[t].items()]) for t in terms})
    argv = ["reduce", "--emit", "provenance", "-o", "out/provenance.log",
            "-c", "in/catalog.ctx", "-c", "in/apps.ctx"]
    for t in terms:
        argv += ["--db", f"Database={t}:in/{t}.kv"]
    for key, value in args.items():
        argv += ["--arg", f"{key}={value}"]
    argv.append("in/workflow.mac")
    sizes = {
        "terminals": n_terms,
        "kv_files": n_terms,
        "applications": n_apps,
        "flows": n_flows,
        "alias_flows": kinds.count("alias"),
    }

    def check(run_dir: Path) -> list[str]:
        return check_provenance((run_dir / "out/provenance.log").read_text(encoding="utf-8"), expected)

    return Workload("reduce_catalog", argv, files, sizes, check)


def check_provenance(text: str, expected: dict[tuple[str, str], tuple[str, str, str, str]]) -> list[str]:
    """Every reduced value, its source and document, and the REDUCE count."""
    errors: list[str] = []
    seen: set[tuple[str, str]] = set()
    for line in text.splitlines():
        words = line.split(" ")
        if len(words) != 7 or words[0] != "REDUCE" or words[2] != "<-" or words[4] != "=":
            errors.append(f"unexpected line {line!r}")
            continue
        element, _, attribute = words[1].partition(".")
        source, _, source_attr = words[3].partition(".")
        slot = (element, attribute)
        if slot in seen:
            errors.append(f"{words[1]} reduced twice")
        seen.add(slot)
        want = expected.get(slot)
        got = (source, source_attr, words[5], words[6].removeprefix("ctx="))
        if want != got:
            errors.append(f"{words[1]}: expected {want}, got {got}")
    if len(seen) != len(expected):
        errors.append(f"{len(seen)} REDUCE events, expected {len(expected)}")
    return errors[:20]


# -- run_jobs --------------------------------------------------------------

_JOB = None  # marks a value that equals the job index of the iteration


def run_jobs(seed: int, scale: float = 1.0) -> Workload:
    """`run --jobs N`: plain-name flows re-reduced for every job, dispatch,
    and one script per application per job."""
    rng = random.Random(f"run_jobs/{seed}")
    n_apps = _scaled(50, scale, 3)
    n_flows = _scaled(120, scale, 4)
    n_literals, n_catalog, n_args = 10, 300, 10
    n_jobs = _scaled(10, scale, 2)
    apps = [f"A{i:02d}" for i in range(n_apps)]
    args = {f"a{i}": _token(rng) for i in range(n_args)}
    catalog = {f"k{i:03d}": _token(rng) for i in range(n_catalog)}

    # Per application: attribute -> literal value, or _JOB for the job index.
    values: dict[str, dict[str, str | None]] = {}
    workflow: list[str] = []
    parents: dict[str, set[str]] = {}
    for i, app in enumerate(apps):
        attrs: dict[str, str | None] = {"jobIndex": _JOB}
        workflow.append(f"attach {app}")
        parents[app] = set()
        if i:
            for j in rng.sample(range(i), k=min(i, 1 + i % 2)):
                workflow.append(f"{app} adddep {apps[j]}")
                parents[app].add(apps[j])
        for n in range(n_literals):
            attrs[f"l{n}"] = _token(rng)
            workflow.append(f"{app} define l{n} {attrs[f'l{n}']}")
        kinds = ["chain"] * (n_flows // 2) + ["catalog"] * (n_flows * 35 // 100) + ["job"] * (n_flows // 100)
        kinds += ["args"] * (n_flows - len(kinds))
        rng.shuffle(kinds)
        for n, kind in enumerate(kinds):
            attr = f"f{n:03d}"
            if kind == "chain" and i:
                source = apps[rng.randrange(i)]
                source_attr = rng.choice([k for k in values[source] if k != "jobIndex"])
                ref, attrs[attr] = f"::{source}:{source_attr}", values[source][source_attr]
            elif kind in ("chain", "catalog"):
                key = rng.choice(sorted(catalog))
                ref, attrs[attr] = f"::Catalog:{key}", catalog[key]
            elif kind == "args":
                key = rng.choice(sorted(args))
                ref, attrs[attr] = f"::@args:{key}", args[key]
            else:
                ref, attrs[attr] = "::Catalog:jobIndex", _JOB
            workflow.append(f"{app} define {attr} {ref}")
        values[app] = attrs

    workflow.append(f"{apps[-1]} oncall submitJobs do submit")
    checkable = [(app, k) for app in apps for k, v in values[app].items() if v is not _JOB]
    for app, attr in rng.sample(checkable, k=min(5, len(checkable))):
        workflow.append(f"{app} check {attr} {values[app][attr]}")
    workflow.append("framework run")

    framework_doc = [
        "framework define preGroup contactDB",
        "framework define onGroup configure,make,submitJobs",
        "attach Catalog",
        "contextBlock Database=Catalog",
        "  oncall contactDB do connectToDatabase",
        "end",
        "contextBlock Application=*",
        "  oncall configure do configureJob",
        "  oncall make do makeJob",
        "end",
    ]
    files = {
        "in/framework.ctx": _lines(framework_doc),
        "in/catalog.kv": _lines([f"{k}={v}" for k, v in catalog.items()]),
        "in/workflow.mac": _lines(workflow),
    }
    argv = ["run", "--jobs", str(n_jobs), "--out-dir", "out", "-c", "in/framework.ctx",
            "--db", "Database=Catalog:in/catalog.kv"]
    for key, value in args.items():
        argv += ["--arg", f"{key}={value}"]
    argv.append("in/workflow.mac")
    flows = n_apps * n_flows
    sizes = {"applications": n_apps, "flows": flows, "jobs": n_jobs, "scripts": n_apps * n_jobs,
             "reduce_events": flows * n_jobs}

    def check(run_dir: Path) -> list[str]:
        return check_run(run_dir / "out", apps, values, parents, n_jobs, flows * n_jobs)

    return Workload("run_jobs", argv, files, sizes, check)


def _job_values(template: dict[str, str | None], job: int) -> dict[str, str]:
    return {k: str(job) if v is _JOB else v for k, v in template.items()}


def check_run(out: Path, apps: list[str], values: dict, parents: dict[str, set[str]],
              n_jobs: int, reduce_events: int) -> list[str]:
    """Every export of every script, the manifest, and the REDUCE count."""
    errors: list[str] = []
    scripts = {f"{job}_{app}.sh" for job in range(n_jobs) for app in apps}
    present = {entry.name for entry in os.scandir(out)}
    if present != scripts | {"manifest.log", "provenance.log"}:
        errors.append(f"output files differ: {len(scripts - present)} scripts missing, "
                      f"{len(present - scripts - {'manifest.log', 'provenance.log'})} extra")
    for job in range(n_jobs):
        for app in apps:
            path = out / f"{job}_{app}.sh"
            if not path.exists():
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            if lines[:1] != ["#!/bin/sh"] or lines[-1:] != [f"echo run {app}"]:
                errors.append(f"{path.name}: bad frame")
            exports: dict[str, str] = {}
            for line in lines[1:-1]:
                words = _shell_words(line)
                key, sep, value = words[1].partition("=") if len(words) == 2 else ("", "", "")
                if words[:1] != ["export"] or not sep:
                    errors.append(f"{path.name}: bad line {line!r}")
                exports[key] = value
            if exports != _job_values(values[app], job):
                errors.append(f"{path.name}: exported values differ")
    errors += _check_manifest((out / "manifest.log").read_text(encoding="utf-8"), apps, values, parents, n_jobs)
    count = 0
    with open(out / "provenance.log", encoding="utf-8") as log:
        for line in log:
            if not line.startswith("REDUCE "):
                errors.append(f"provenance: unexpected line {line.strip()!r}")
                break
            count += 1
    if count != reduce_events:
        errors.append(f"provenance: {count} REDUCE events, expected {reduce_events}")
    return errors[:20]


def _check_manifest(text: str, apps: list[str], values: dict, parents: dict[str, set[str]],
                    n_jobs: int) -> list[str]:
    errors: list[str] = []
    order: dict[int, list[str]] = {job: [] for job in range(n_jobs)}
    last_job = 0
    for line in text.splitlines():
        words = line.split(" ")
        if len(words) != 4 or words[0] != "JOB" or not words[1].isdigit() or int(words[1]) not in order:
            errors.append(f"manifest: unexpected line {line[:60]!r}")
            continue
        job, app = int(words[1]), words[2]
        if job < last_job:
            errors.append(f"manifest: job {job} after job {last_job}")
        last_job = job
        order[job].append(app)
        attrs = dict(pair.split("=", 1) for pair in words[3].split(","))
        if app not in values or attrs != _job_values(values[app], job):
            errors.append(f"manifest: job {job} {app}: values differ")
    for job, seen in order.items():
        if sorted(seen) != sorted(apps):
            errors.append(f"manifest: job {job} has {len(seen)} records, expected {len(apps)}")
            continue
        position = {app: n for n, app in enumerate(seen)}
        if any(position[p] > position[c] for c in apps for p in parents[c]):
            errors.append(f"manifest: job {job} is not in dependency order")
    return errors


GENERATORS = {"expand_dag": expand_dag, "reduce_catalog": reduce_catalog, "run_jobs": run_jobs}
