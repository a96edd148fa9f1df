"""The duoidal-kit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs every workload in turn, printing its name and then its result.

Run from the root of a checkout.  With --trace 0 it runs whole rounds of the
workload, each in a fresh child process, until the next round would end after
S seconds (at least MIN_ROUNDS rounds), and reports the end-to-end metrics
of the run, with times scaled to the reference speed (see reference_loop and
end_to_end).  With --trace 1 it runs one untraced and one traced round and
reports the per-layer metrics of the traced one; trace.overhead_s is the
difference of their raw check times.  Every round checks
its output; each check is one attempted operation.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-run details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
MIN_ROUNDS = 2
REF_ITERATIONS = 80_000
# The reference loop's time at the reference speed: this machine (2 vCPUs,
# Python 3.11.7) in a quiet stretch.  A scaled time reads as seconds at that speed.
REF_S = 0.155


class RoundFailed(RuntimeError):
    pass


def reference_loop():
    """Time a fixed piece of interpreter-bound work (tuple keys, dict updates,
    a growing dict of nested tuples, small sorts) that does not touch the
    program.

    The machine is a virtual one on a shared host, and other jobs there slow
    everything it runs by up to half, in bursts of a second to minutes.
    Timed next to every round, this loop slows with the host, so the ratio of
    a round's times to its time stays steadier than the raw times.
    """
    start = time.perf_counter()
    counts = {}
    pool = {}
    for i in range(REF_ITERATIONS):
        key = (i % 977, (i * 7) % 13)
        counts[key] = counts.get(key, 0) + 1
        pool[(key, (i, (i & 7, key)))] = len(pool)
        sorted((i % 7, i % 5, i % 3))
    return time.perf_counter() - start


def run_round(workload, seed, trace):
    """One fresh child process, bracketed by two reference loops; returns its
    record with setup_s and ref_s (the mean of the two loops) added."""
    started = time.monotonic()
    ref_before = reference_loop()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), "1" if trace else "0"]
    # a fixed hash seed keeps set and dict orders, and so the work done, the
    # same from round to round
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    ref_after = reference_loop()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(f"{workload} round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["check_start"] - spawned
    record["round_s"] = time.monotonic() - started
    record["ref_s"] = (ref_before + ref_after) / 2
    return record


def timed_rounds(workload, seed, seconds):
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append(run_round(workload, seed, trace=False))
        longest = max(r["round_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and time.monotonic() - start + longest > seconds:
            return rounds


def end_to_end(rounds):
    """Times are the run's total over its total reference-loop time, times
    REF_S: a mean over the rounds, weighted as the time was spent, in seconds
    at the reference speed.  Memory and cases are medians over the rounds."""
    scale = REF_S / sum(r["ref_s"] for r in rounds)
    wall = scale * sum(r["wall_s"] for r in rounds)
    cases = statistics.median(r["cases"] for r in rounds)
    return {
        "wall_s": wall,
        "setup_s": scale * sum(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "cases": cases,
        "cases_per_s": cases / wall,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help='a workload of BENCHMARK.json, or "all"')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "duoidal_kit", "__init__.py")):
        print(f"error: no duoidal_kit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for name in names if args.workload == "all" else [args.workload]:
        if args.workload == "all":
            print(f"== {name}", flush=True)
        status = run_workload(spec, name, args.seed, args.seconds, args.trace)
        if status:
            return status
    return 0


def run_workload(spec, workload, seed, seconds, trace):
    try:
        if trace:
            plain = run_round(workload, seed, trace=False)
            traced = run_round(workload, seed, trace=True)
            rounds = [plain, traced]
            values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
            wanted = spec["per_layer"]
        else:
            rounds = timed_rounds(workload, seed, seconds)
            values = end_to_end(rounds)
            wanted = spec["end_to_end"]
    except (RoundFailed, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    checks = [ok for r in rounds for _, ok in r["checks"]]
    failed = checks.count(False)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"result": result, "rounds": rounds}, fh, indent=1)
    for r in rounds:
        for name, ok in r["checks"]:
            if not ok:
                print(f"FAILED: {workload}: {name}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
