"""One measured round of one workload, in a process of its own.

    python3 perfbench/child.py <workload> <seed> <trace 0|1>

Prints one JSON line: when the check started (time.monotonic, which every
process on the machine shares, so the parent can compute set-up time from
when it started this process), the check's wall time and the process's peak
resident memory at its end (VmHWM, which unlike ru_maxrss does not count the
memory of the parent this process was forked from), the case count, the
operations of the output check, and with tracing on the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(workload, seed, trace):
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    job = WORKLOADS[workload]()
    job.setup()
    if tracer:
        tracer.start()
    check_start = time.monotonic()
    start = time.perf_counter()
    job.run()
    wall = time.perf_counter() - start
    peak_kb = _peak_rss_kb()
    out = {
        "check_start": check_start,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "cases": job.cases(),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["functions"] = tracer.top_functions()
    out["checks"] = [[name, bool(ok)] for name, ok in job.verify(seed)]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
