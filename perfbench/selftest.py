"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 perfbench/selftest.py

It checks that:
- every workload, untraced and traced, prints every metric that
  BENCHMARK.json names for that mode, with its unit, and passes its oracle;
- each oracle rejects a deliberately corrupted output: a dropped PARENT
  edge (expand_dag), a missing REDUCE event (reduce_catalog) and one changed
  export value (run_jobs);
- run.py fails without printing a result where no ctxflow sources exist.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCALE = "0.02"
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(spec: dict) -> None:
    for name in workloads.GENERATORS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--scale", SCALE, "--trace", trace)
            label = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code 0 ({proc.stderr.strip()[-200:]})")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{label}: last line is a JSON result")
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: outputs correct ({result['attempted']} attempted, {result['failed']} failed)")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label}: prints exactly the {section} metrics with their units")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{label}: every value is a number")


def corrupted(run_dir: Path, name: str, path: str, corrupt) -> None:
    """Run the CLI once on a tiny workload, then check that the oracle
    passes the output and rejects it after `corrupt` edits it."""
    workload = workloads.GENERATORS[name](2, float(SCALE))
    workload.write_inputs(run_dir)
    workload.reset_outputs(run_dir)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ctxflow.cli", *workload.argv], cwd=run_dir, env=env,
                          capture_output=True, text=True, timeout=120)
    expect(proc.returncode == 0 and not workload.check(run_dir), f"{name}: oracle accepts the real output")
    target = run_dir / path
    target.write_text(corrupt(target.read_text(encoding="utf-8")), encoding="utf-8")
    expect(bool(workload.check(run_dir)), f"{name}: oracle rejects {corrupt.__doc__}")


def drop_parent(text: str) -> str:
    """a dropped PARENT edge"""
    lines = text.splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith("PARENT ")))
    return "".join(lines)


def drop_reduce(text: str) -> str:
    """a missing REDUCE event"""
    lines = text.splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith("REDUCE ")))
    return "".join(lines)


def change_export(text: str) -> str:
    """one changed export value"""
    lines = text.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith("export l"))
    lines[index] = lines[index].rstrip("\n") + "x\n"
    return "".join(lines)


def check_bare(work: Path) -> None:
    """Only BENCHMARK.json and the benchmark's files: no program to run."""
    bare = work / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "expand_dag", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without ctxflow sources run.py exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        check_metrics(spec)
        corrupted(work / "dag", "expand_dag", "out/dag.txt", drop_parent)
        corrupted(work / "reduce", "reduce_catalog", "out/provenance.log", drop_reduce)
        corrupted(work / "run", "run_jobs", "out/1_A01.sh", change_export)
        check_bare(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failures" if failures else "selftest passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
