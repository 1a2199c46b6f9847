"""Run the benchmark's child processes and report wall time, exit code and peak RSS.

Reads one JSON request per line on standard input,
``{"argv": [...], "out": PATH, "err": PATH}``, runs ``argv`` with standard
input from ``/dev/null`` and its output in the two files, and answers with
one line ``{"wall": s, "code": n, "maxrss_kb": n}``.  Exits at end of input.

It is a separate, small process because Linux starts a child's peak-RSS
counter at the peak RSS of the process it was forked from: spawned
straight from the benchmark, which holds about 100 MB of inputs for
``cycle-large``, every CLI call would report at least that much.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "w") as out, open(req["err"], "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
