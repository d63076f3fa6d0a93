#!/usr/bin/env python3
"""Steadiness check for one workload: runs the benchmark on distinct seeds,
alternating two sets run by run (A B A B ...), and reports per end-to-end
metric the quartile spread (Q3 - Q1) / median over all runs, and how far
set B's median sits from set A's, against the bound in BENCHMARK.json.
Run i uses seed i + 1 and BENCHMARK.json's run_seconds.

    python3 perfbench/steadiness.py --workload NAME [--runs 10]

A metric is "ok" when its spread is below a third of its bound and the
gap between the set medians is within the bound. Every metric is judged
so, set-up time too.

Both sets run the same code. Alternating them puts any drift of the host
into both sets equally, so a gap between their medians is noise of the
benchmark, not a slope of the host. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import ledger  # noqa: E402

HOST = re.compile(r"memory stream ([\d.]+) GB/s before, ([\d.]+) GB/s after;"
                  r" steal ([\d.na]+)%")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    lines = proc.stdout.strip().splitlines()
    host = HOST.search(proc.stdout)
    return json.loads(lines[-1]), [float(g) for g in host.groups()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        result, host = run_once(args.workload, i + 1, spec["run_seconds"])
        if not result["correct"]:
            print("run %d: %d of %d jobs failed their check"
                  % (i, result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("run %d (set %s, seed %d): stream %.2f/%.2f GB/s, steal %.1f%%,"
              " p50 %.1f ms, setup %.3f ms"
              % (i, "AB"[i % 2], i + 1, host[0], host[1], host[2],
                 result["metrics"]["job_ms_p50"]["value"],
                 1e3 * result["metrics"]["setup_s"]["value"]),
              flush=True)

    print("%-28s %12s %8s %8s %8s %6s" %
          ("metric", "median", "spread", "B/A-1", "bound", "ok"))
    for m in metrics:
        v = values[m["name"]]
        a, b = v[0::2], v[1::2]
        spread = ledger.quartile_spread(v) if len(v) >= 2 else 0.0
        med_a, med_b = ledger.median(a), ledger.median(b)
        gap = med_b / med_a - 1.0 if med_a else 0.0
        bound = m["bound"]
        ok = spread < bound / 3 and abs(gap) <= bound
        print("%-28s %12.5g %8.4f %8.4f %8s %6s" %
              (m["name"], ledger.median(v), spread, gap, bound,
               "yes" if ok else "NO"))


if __name__ == "__main__":
    main()
