"""Benchmark of the ctxflow CLI on seeded, generated workloads.

Usage, from the root of a ctxflow checkout:

    python3 perfbench/run.py --workload expand_dag --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's command as fresh
``python -m ctxflow.cli`` processes, one at a time (a closed loop with one
client), for ``--seconds`` seconds, checks every output with the workload's
oracle and reports the end-to-end metrics. With ``--trace 1`` it replays the
same command in-process under spans (see tracing.py) and reports the
per-layer metrics. Either way the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Before any timing it checks that ``apply`` on the fixtures/ corpus gives
full_workflow.golden.mac byte for byte. Generated inputs and outputs live in
.perfbench_work/ under the checkout and are removed at exit; the spans of a
traced run are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
CLI = [sys.executable, "-m", "ctxflow.cli"]
# The reference process: a fixed amount of pure-Python work that does not
# touch ctxflow. Timed next to each invocation, it tracks the speed of the
# machine at that moment, so `wall_rel` cancels the machine's drift.
REFERENCE = [sys.executable, "-I", "-c", "d = {}\nfor i in range(150000): d[str(i)] = i\nassert sum(d.values())"]

# The tail percentile needs this many samples beyond it; twice as many plus
# one keeps it at or above the median.
TAIL_BEYOND = 10
MIN_INVOCATIONS = 2 * TAIL_BEYOND + 1
# A traced run also times a few untraced invocations, to subtract.
TRACE_UNTRACED = 3
MIN_REPLAYS = 3


class Launcher:
    """Client of launch.py, the small process that spawns each invocation."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=env)

    def run(self, argv: list[str], cwd: Path, stdout: Path | None = None, stderr: Path | None = None) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "stdout": stdout and str(stdout), "stderr": stderr and str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Run:
    """Invocations of one benchmark run and the problems found in them."""

    def __init__(self, launcher: Launcher, workload: workloads.Workload, run_dir: Path) -> None:
        self.launcher = launcher
        self.workload = workload
        self.run_dir = run_dir
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def golden(self) -> None:
        """`apply` on the fixture corpus must reproduce the golden expansion."""
        out = self.run_dir / "golden.mac"
        contexts = [arg for name in ("Framework.ctx", "PhysicsGroup.ctx", "Scheduler.ctx")
                    for arg in ("-c", str(FIXTURES / name))]
        reply = self.launcher.run([*CLI, "apply", *contexts, str(FIXTURES / "workflow.mac"), "-o", str(out)],
                                  self.run_dir, stderr=self.run_dir / "stderr.txt")
        golden = (FIXTURES / "full_workflow.golden.mac").read_bytes()
        if reply["exit"] != 0 or not out.exists() or out.read_bytes() != golden:
            self.problems.append(f"fixtures: apply does not reproduce the golden expansion: {self._stderr()}")

    def setup(self) -> float:
        """One fresh process that imports ctxflow, builds its parser and exits."""
        out = self.run_dir / "help.txt"
        reply = self.launcher.run([*CLI, "--help"], self.run_dir, stdout=out)
        if reply["exit"] != 0 or not out.read_text(encoding="utf-8").startswith("usage: ctxflow"):
            self.problems.append("setup: `ctxflow --help` failed")
        return reply["wall_s"]

    def reference(self) -> float:
        """One reference process, next to an invocation."""
        reply = self.launcher.run(REFERENCE, self.run_dir)
        if reply["exit"] != 0:
            self.problems.append("reference process failed")
        return reply["wall_s"]

    def invoke(self) -> dict:
        """One CLI invocation of the workload, checked by its oracle."""
        self.workload.reset_outputs(self.run_dir)
        reply = self.launcher.run([*CLI, *self.workload.argv], self.run_dir, stderr=self.run_dir / "stderr.txt")
        self.attempted += 1
        errors = [f"exit code {reply['exit']}: {self._stderr()}"] if reply["exit"] != 0 else self.check()
        if errors:
            self.failed += 1
            self.problems += errors
        return reply

    def check(self) -> list[str]:
        try:
            return self.workload.check(self.run_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"output unreadable: {exc!r}"]

    def _stderr(self) -> str:
        path = self.run_dir / "stderr.txt"
        return path.read_text(encoding="utf-8", errors="replace").strip()[-300:] if path.exists() else ""


def measure(run: Run, seconds: float) -> dict[str, dict]:
    """The end-to-end metrics over `seconds` of back-to-back invocations,
    each followed by one set-up sample and one reference process."""
    replies, setups, relative = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(replies) < MIN_INVOCATIONS:
        replies.append(run.invoke())
        setups.append(run.setup())
        relative.append(replies[-1]["wall_s"] / run.reference())
    walls = sorted(r["wall_s"] for r in replies)
    n = len(walls)
    rank = n - TAIL_BEYOND
    metrics = {
        "wall_s": (statistics.median(walls), "s", f"median of {n} invocations"),
        "wall_tail_s": (walls[rank - 1], "s", f"p{100 * rank / n:.1f} (nearest rank) of {n} invocations, "
                                               f"the highest percentile with {TAIL_BEYOND} samples beyond it"),
        "wall_rel": (statistics.fmean(relative), "ratio", "mean of invocation wall time over the wall time "
                                                            "of the reference process right after it"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} `ctxflow --help` processes"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in replies) / 1024, "MB",
                        "median of the per-invocation ru_maxrss"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:12} {value:8.4f} {unit:3} {note}")
    print(f"{'cpu_s':12} {statistics.median(r['cpu_s'] for r in replies):8.4f} s   median child CPU time (rusage)")
    print(f"{'error_rate':12} {run.failed / run.attempted:8.4f}     {run.failed} failed / {run.attempted} attempted")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def measure_traced(run: Run, seconds: float, seed: int) -> dict[str, dict]:
    """The per-layer metrics: medians over in-process traced replays, each
    checked by the oracle, and the tracing overhead against a few untraced
    invocations made in the same run."""
    sys.path.insert(0, str(SRC))
    import tracing

    untraced = [run.invoke()["wall_s"] for _ in range(TRACE_UNTRACED)]
    setups = [run.setup() for _ in range(TRACE_UNTRACED)]
    untraced_work = statistics.median(untraced) - statistics.median(setups)

    replays: list[dict[str, float]] = []
    spans: list[list[dict]] = []
    deadline = time.perf_counter() + seconds
    cwd = os.getcwd()
    while time.perf_counter() < deadline or len(replays) < MIN_REPLAYS:
        run.workload.reset_outputs(run.run_dir)
        gc.collect()
        os.chdir(run.run_dir)
        try:
            tracer = tracing.replay(run.workload.argv)
        finally:
            os.chdir(cwd)
        run.attempted += 1
        errors = run.check()
        if errors:
            run.failed += 1
            run.problems += errors
        values = tracing.metrics(tracer)
        values["trace.overhead_s"] = tracer.total(tracing.ROOT_SPAN) - untraced_work
        replays.append(values)
        spans.append(tracer.finished_spans())
        del tracer

    for name in tracing.COUNT_METRICS:
        if len({r[name] for r in replays}) != 1:
            run.problems.append(f"trace: count {name} differs between replays")
    TRACE_OUT.mkdir(exist_ok=True)
    span_file = TRACE_OUT / f"{run.workload.name}-seed{seed}.json"
    span_file.write_text(json.dumps({"workload": run.workload.name, "seed": seed, "replays": spans}), encoding="utf-8")

    print(f"{'span':34} {'calls':>5} {'total_s':>9} {'self_s':>9}   (first replay)")
    for name in dict.fromkeys(s["name"] for s in spans[0]):
        group = [s for s in spans[0] if s["name"] == name]
        print(f"{name:34} {len(group):5d} {sum(s['duration'] for s in group):9.4f} "
              f"{sum(s['self'] for s in group):9.4f}")
    print(f"{len(replays)} traced replays; spans written to {span_file.relative_to(ROOT)}")

    return {name: {"value": statistics.median(r[name] for r in replays), "unit": tracing.COUNT_METRICS.get(name, "s")}
            for name in replays[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor (1 = the benchmark)")
    ns = parser.parse_args(argv)
    if not (SRC / "ctxflow" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: no ctxflow sources under {ROOT}; run from the root of a ctxflow checkout",
              file=sys.stderr)
        return 2

    workload = workloads.GENERATORS[ns.workload](ns.seed, ns.scale)
    run_dir = WORK / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    print(f"workload {ns.workload} seed {ns.seed}: {workload.sizes}")
    try:
        workload.write_inputs(run_dir)
        with Launcher() as launcher:
            run = Run(launcher, workload, run_dir)
            run.golden()
            run.setup()  # warm-up: compiles the bytecode cache, not timed
            if ns.trace:
                metrics = measure_traced(run, ns.seconds, ns.seed)
            else:
                metrics = measure(run, ns.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only once no other run is using it
        except OSError:
            pass
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
