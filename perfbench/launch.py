"""Small process that starts and times the benchmark's child processes.

Reads one JSON request per line on stdin:
{"argv": [...], "cwd": DIR, "stdout": PATH, "stderr": PATH, "env": {...},
"timeout": SECONDS}, runs the process to completion and writes one JSON
line back: {"wall": SECONDS, "code": EXIT_CODE, "maxrss_kib": KIB}.
Exits when stdin closes.

Children are started from here rather than from the benchmark process
because Linux books a child's pre-exec memory into its ``ru_maxrss``: a
child started from the benchmark (which holds reference tables) would
report the benchmark's peak instead of its own. This process stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, \
            open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdout=out, stderr=err, env=request["env"])
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
