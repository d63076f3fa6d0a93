#!/usr/bin/env python3
"""Compare BENCH_JSON lines against a checked-in baseline.

Usage: compare_bench.py BASELINE.jsonl CURRENT.jsonl [--threshold 0.20]

Both files hold one JSON object per line (the `BENCH_JSON ` prefix is
accepted and stripped). Records pair up on every non-metric field
(bench/mode/n/...); metrics are the throughput (`*_per_s`) fields. A
current record more than --threshold below its baseline emits a
GitHub warning annotation; the exit code stays 0 so noisy CI runners
don't gate merges, but the warning lands on the workflow summary. Exit is
nonzero only for malformed input or when nothing could be compared.
"""

import argparse
import json
import sys


def load(path):
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("BENCH_JSON"):
                line = line[len("BENCH_JSON"):].strip()
            rec = json.loads(line)
            metrics = {
                k: v for k, v in rec.items()
                if k.endswith("_per_s") and isinstance(v, (int, float))
            }
            key = tuple(sorted(
                (k, v) for k, v in rec.items()
                if k not in metrics and not k.endswith("_ms")
            ))
            if metrics:
                records[key] = metrics
    return records


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional regression that triggers a warning")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if not baseline:
        print(f"error: no comparable records in {args.baseline}")
        return 1
    if not current:
        print(f"error: no comparable records in {args.current}")
        return 1

    compared = 0
    regressions = 0
    for key, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(key)
        if cur_metrics is None:
            print(f"note: baseline record {dict(key)} missing from current run")
            continue
        for metric, base in base_metrics.items():
            cur = cur_metrics.get(metric)
            if cur is None or base <= 0:
                continue
            compared += 1
            ratio = cur / base
            label = ", ".join(f"{k}={v}" for k, v in key)
            if ratio < 1.0 - args.threshold:
                regressions += 1
                print(f"::warning title=bench regression::{label} {metric} "
                      f"{cur:.3f} vs baseline {base:.3f} "
                      f"({(1.0 - ratio) * 100:.1f}% slower)")
            else:
                print(f"ok: {label} {metric} {cur:.3f} vs {base:.3f} "
                      f"({ratio:.2f}x baseline)")

    if compared == 0:
        print("error: no overlapping records between baseline and current")
        return 1
    print(f"compared {compared} metric(s), {regressions} regression(s) "
          f"beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
