"""Spawn CLI invocations on request and report their wall time and rusage.

run.py keeps this helper as a separate, small process because on Linux a
child's peak RSS (``ru_maxrss``) starts at its parent's high-water mark: a
child spawned straight from the benchmark, which holds generated inputs and
parsed outputs, would report the benchmark's memory instead of its own.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "stdout",
"stderr"}`` (the last two are file paths or null); one JSON reply per line on
stdout, ``{"wall_s", "exit", "cpu_s", "maxrss_kb"}``. End of input stops it.
"""

import json
import os
import subprocess
import sys
import time


def _sink(path):
    return open(path, "wb") if path else subprocess.DEVNULL


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        stdout, stderr = _sink(request["stdout"]), _sink(request["stderr"])
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            for sink in (stdout, stderr):
                if sink is not subprocess.DEVNULL:
                    sink.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "exit": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
