"""Start commands for the benchmark and report each one's wall time and peak RSS.

A child's ru_maxrss counts the memory of the process it was forked from, so
children forked straight from the benchmark (which holds the reference model)
would all report at least its size. This small process forks them instead.

Protocol: one JSON request per stdin line, {"cmd": [...], "cwd": ..., "env": {...}};
one JSON reply per stdout line, {"seconds", "code", "output", "maxrss_kb"}.
Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

if __name__ == "__main__":
    for line in sys.stdin:
        request = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            output = proc.stdout.read().decode("utf-8", "replace")
        _, status, rusage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "output": output,
                 "maxrss_kb": rusage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
