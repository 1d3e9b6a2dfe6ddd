"""Runs the benchmark's child commands, one at a time, and reports each one's
wall time and peak resident set size.

The benchmark starts this process before it holds any large data. The
reason: Linux folds the RSS high-water mark of the process that forks a
child into that child's ``ru_maxrss``, so children of the benchmark itself
would report its peak instead of their own. Children of this small process
report their own peak.

Protocol: one JSON request per line on standard input, with ``argv``,
``cwd``, ``stdout`` and ``stderr`` (file paths for the child's output) and
``timeout`` (seconds before the child is killed); one JSON reply per line
on standard output, with ``seconds``, ``returncode`` and ``maxrss_kb``.
The process exits when its standard input closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            request["argv"], cwd=request["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(request["timeout"], child.kill)
        watchdog.start()
        try:
            # wait4 rather than wait: it also returns the child's resource usage.
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "returncode": child.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
