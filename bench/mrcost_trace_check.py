#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by mrcost tracing.

Usage: mrcost_trace_check.py TRACE.json [--require-prediction]
                                        [--require-categories map,shuffle,...]
                                        [--check-fetch-spans]
                                        [--span-names-subset-of=OTHER.json]

Checks, in order:
  1. The file parses as JSON and holds a {"traceEvents": [...]} document.
  2. Every event has the mandatory Chrome trace_event fields for its
     phase; complete ('X') spans have dur >= 0 and numeric ts.
  3. Attempt accounting: grouping 'X' events that carry an args.attempt
     annotation by args.task, every task has 1 or 2 attempts and exactly
     one with args.outcome == "win" (the speculative first-wins
     invariant: a backup either rescued the task or lost, never both).
  4. Round accounting: every cat == "round" summary span carries
     realized_q and realized_r; with --require-prediction it must also
     carry positive predicted_q and predicted_r (plan-driven runs annotate
     rounds with the StageEstimate they were priced at; 0 means the round
     was not priced).
  5. Category coverage: with --require-categories, every named category
     appears at least once (CI smokes assert map,shuffle,reduce).
  6. Fetch accounting: with --check-fetch-spans, at least one cat ==
     "fetch" span exists (the wire shuffle's per-(reducer, source-run)
     FetchRun record), every one carries the flow-control args (run,
     reducer, credits, blocks, bytes, stall_ms, credit_wait_ms), and no
     (reducer, run) pair appears twice — a duplicate would mean a reducer
     fetched the same run twice — and no two FetchRun spans on one lane
     (pid, tid) overlap: a reducer drains its runs one after another, so
     each span must time its own run's drain, not the wait behind earlier
     runs. Only meaningful on failure-free runs: a worker death
     legitimately re-fetches surviving runs, so the kill smokes must not
     pass this flag.
  7. One span vocabulary: with --span-names-subset-of=OTHER, every span
     name in TRACE must also appear in OTHER (a trace of the other
     backend), except the container and transport spans only one backend
     has: Round, dist-map, dist-reduce and FetchRun.

Exit 0 with a one-line summary on success; exit 1 with the list of
violations otherwise. Metadata ('M') records are tolerated and skipped.
"""

import argparse
import json
import sys


def fail(errors):
    for err in errors[:50]:
        print(f"trace_check: {err}", file=sys.stderr)
    if len(errors) > 50:
        print(f"trace_check: ... {len(errors) - 50} more", file=sys.stderr)
    return 1


def check_event_shape(i, event, errors):
    """Structural checks on one event; returns False to skip it entirely."""
    if not isinstance(event, dict):
        errors.append(f"event {i}: not an object")
        return False
    phase = event.get("ph")
    if phase == "M":  # metadata (process_name etc.): no timing fields
        return False
    for field in ("name", "ph", "pid", "tid", "ts"):
        if field not in event:
            errors.append(f"event {i} ({event.get('name')}): missing {field!r}")
            return False
    if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
        errors.append(f"event {i} ({event['name']}): bad ts {event['ts']!r}")
        return False
    if phase == "X":
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(
                f"event {i} ({event['name']}): 'X' span with bad dur {dur!r}")
            return False
    elif phase == "i":
        if event.get("s") not in ("t", "p", "g"):
            errors.append(
                f"event {i} ({event['name']}): instant without scope 's'")
            return False
    else:
        errors.append(f"event {i} ({event['name']}): unknown phase {phase!r}")
        return False
    return True


def check_attempts(events, errors):
    """First-wins invariant over speculative task attempts."""
    attempts = {}
    for event in events:
        args = event.get("args", {})
        if event.get("ph") != "X" or "attempt" not in args:
            continue
        task = args.get("task")
        if task is None:
            errors.append(
                f"span {event['name']!r}: attempt annotation without a task id")
            continue
        attempts.setdefault(task, []).append(args)
    for task, group in sorted(attempts.items()):
        if not 1 <= len(group) <= 2:
            errors.append(
                f"task {task}: {len(group)} attempts recorded (expected 1-2)")
        wins = sum(1 for args in group if args.get("outcome") == "win")
        if wins != 1:
            errors.append(
                f"task {task}: {wins} winning attempts (expected exactly 1)")
        kinds = [args.get("attempt") for args in group]
        if len(group) == 2 and sorted(kinds) != ["backup", "primary"]:
            errors.append(f"task {task}: attempt kinds {kinds} (expected one "
                          "primary and one backup)")
    return len(attempts)


def check_rounds(events, require_prediction, errors):
    rounds = [e for e in events if e.get("cat") == "round"]
    for event in rounds:
        args = event.get("args", {})
        for field in ("realized_q", "realized_r"):
            if not isinstance(args.get(field), (int, float)):
                errors.append(f"round span at ts={event['ts']}: missing "
                              f"numeric {field}")
        if require_prediction:
            for field in ("predicted_q", "predicted_r"):
                value = args.get(field)
                if not isinstance(value, (int, float)):
                    errors.append(f"round span at ts={event['ts']}: missing "
                                  f"{field} (--require-prediction)")
                elif not value > 0:
                    errors.append(f"round span at ts={event['ts']}: {field} "
                                  f"{value} is not positive "
                                  "(--require-prediction)")
    return len(rounds)


def check_fetch_spans(events, errors):
    """Wire-shuffle FetchRun spans: args present, (reducer, run) unique."""
    fetches = [e for e in events if e.get("cat") == "fetch"]
    if not fetches:
        errors.append("no 'fetch' spans found (--check-fetch-spans)")
        return 0
    required = ("run", "reducer", "credits", "blocks", "bytes",
                "stall_ms", "credit_wait_ms")
    seen = {}
    for event in fetches:
        args = event.get("args", {})
        for field in required:
            if field not in args:
                errors.append(f"fetch span at ts={event['ts']}: missing "
                              f"args.{field}")
        pair = (args.get("reducer"), args.get("run"))
        if None not in pair:
            seen[pair] = seen.get(pair, 0) + 1
    for (reducer, run), count in sorted(seen.items()):
        if count != 1:
            errors.append(f"reducer {reducer} fetched run {run!r} "
                          f"{count} times (expected once)")
    lanes = {}
    for event in fetches:
        lanes.setdefault((event.get("pid"), event.get("tid")),
                         []).append(event)
    for (pid, tid), spans in sorted(lanes.items(), key=str):
        spans.sort(key=lambda e: e["ts"])
        for prev, cur in zip(spans, spans[1:]):
            if cur["ts"] < prev["ts"] + prev["dur"]:
                errors.append(
                    f"lane pid={pid} tid={tid}: FetchRun of run "
                    f"{cur.get('args', {}).get('run')!r} starts at "
                    f"ts={cur['ts']} inside the one of run "
                    f"{prev.get('args', {}).get('run')!r} "
                    f"[{prev['ts']}, {prev['ts'] + prev['dur']})")
    return len(fetches)


# Spans only one backend emits: the round summary and the multi-process
# task and transport spans.
BACKEND_ONLY_SPANS = {"Round", "dist-map", "dist-reduce", "FetchRun"}


def span_names(events):
    return {e["name"] for e in events if e.get("ph") == "X"}


def check_span_names_subset(events, other_path, errors):
    """Every span name here, backend-only spans aside, appears in the
    trace at `other_path`."""
    try:
        with open(other_path, encoding="utf-8") as fh:
            other = json.load(fh).get("traceEvents", [])
    except (OSError, json.JSONDecodeError, AttributeError) as err:
        errors.append(f"--span-names-subset-of: {other_path}: {err}")
        return
    known = span_names(e for e in other if isinstance(e, dict))
    for name in sorted(span_names(events) - known - BACKEND_ONLY_SPANS):
        errors.append(f"span {name!r} never appears in {other_path} "
                      "(--span-names-subset-of)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("--require-prediction", action="store_true",
                        help="round spans must carry positive "
                        "predicted_q/predicted_r")
    parser.add_argument("--require-categories", default="",
                        help="comma-separated categories that must appear")
    parser.add_argument("--check-fetch-spans", action="store_true",
                        help="validate wire-shuffle FetchRun span accounting")
    parser.add_argument("--span-names-subset-of", default="",
                        metavar="OTHER",
                        help="every span name, backend-only spans aside, "
                        "must appear in the trace OTHER")
    opts = parser.parse_args()

    try:
        with open(opts.trace, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return fail([f"{opts.trace}: {err}"])

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        return fail([f"{opts.trace}: no traceEvents array"])
    raw = doc["traceEvents"]
    if not raw:
        return fail([f"{opts.trace}: traceEvents is empty"])

    errors = []
    events = [e for i, e in enumerate(raw) if check_event_shape(i, e, errors)]

    tasks = check_attempts(events, errors)
    rounds = check_rounds(events, opts.require_prediction, errors)
    if opts.check_fetch_spans:
        check_fetch_spans(events, errors)
    if opts.span_names_subset_of:
        check_span_names_subset(events, opts.span_names_subset_of, errors)

    seen_categories = {e.get("cat") for e in events}
    for cat in filter(None, opts.require_categories.split(",")):
        if cat not in seen_categories:
            errors.append(f"required category {cat!r} never appears")

    if errors:
        return fail(errors)
    print(f"trace_check: OK — {len(events)} events, {tasks} task attempt "
          f"groups, {rounds} round spans, categories: "
          f"{','.join(sorted(c for c in seen_categories if c))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
