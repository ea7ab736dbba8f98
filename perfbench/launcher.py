"""Starts the benchmark's commands from a small process.

A child's max RSS as reported by ``wait4`` includes the memory of the
process that forked it, so commands forked straight from the benchmark
(which holds the package, the references and sympy) would all report at
least its size.  This process stays small: it reads one JSON request per
line on stdin, runs the command with stdout and stderr sent to the named
files, and answers with the exit code, wall time and the child's max RSS.
A child still running at the request's deadline is killed.  The process
ends at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"rc": proc.returncode, "wall": wall,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
