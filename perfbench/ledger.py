"""The benchmark's arithmetic: percentiles, prediction errors, failure
tallies, and the fold of a Chrome trace into per-layer self times.

Pure functions over plain Python data, so test_ledger.py can check them on
hand-built inputs.
"""

import heapq
import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10

# Where each span the program emits belongs. Spans not listed here (the
# benchmark's own "bench.*" spans and the per-round "Round" summaries) are
# containers: their self time is the caller waiting, not a layer working.
SPAN_LAYER = {
    "MapPartition": "engine.map",
    "MapSpill": "engine.map",
    "PlanPartition": "engine.map",
    "RouteBlock": "engine.map",
    "AssignKeyRanks": "engine.map",
    "BlockShardedShuffle": "engine.group",
    "RadixPartition": "engine.group",
    "ShardGroup": "engine.group",
    "ReduceShard": "engine.reduce",
    "ReduceRange": "engine.reduce",
    "Finalize": "engine.finalize",
    "SpillBlockRun": "storage.spill",
    "SpillRun": "storage.spill",
    "Merge": "storage.merge",
    "MergePass": "storage.merge",
    "dist-map": "dist.map_task",
    "dist-reduce": "dist.reduce_task",
    "FetchRun": "dist.fetch",
}


def nearest_rank(samples, p):
    """The p-th percentile by nearest rank, and how many samples lie
    beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_rung(min_jobs):
    """The highest TAIL_LADDER percentile with at least MIN_BEYOND samples
    beyond it in a run of `min_jobs` samples, or None when even the lowest
    rung has too few. Samples beyond a rung only grow with the sample
    count, so every run of at least `min_jobs` has that many beyond it.
    The rung follows the guaranteed count, not a run's actual one: a run
    that fits more jobs in its seconds (a faster host, a faster program)
    reports the same percentile as one that fits fewer."""
    best = None
    for p in TAIL_LADDER:
        if nearest_rank(range(min_jobs), p)[1] >= MIN_BEYOND:
            best = p
    return best


def pred_error(predicted, realized):
    """Symmetric prediction error max(realized/predicted,
    predicted/realized): 1 is exact, and over- and under-prediction by the
    same factor score the same."""
    if predicted <= 0 and realized <= 0:
        return 1.0
    if predicted <= 0 or realized <= 0:
        return math.inf
    return max(realized / predicted, predicted / realized)


def worst_pred_error(predicted, realized):
    """The largest pred_error over rounds paired by position."""
    errors = [pred_error(p, r) for p, r in zip(predicted, realized)]
    return max(errors) if errors else 1.0


def tally_checks(checks):
    """(attempted, failed) over per-job check results."""
    checks = list(checks)
    return len(checks), sum(1 for ok in checks if not ok)


def ok_share(attempted, failed):
    """Share of attempted jobs whose output passed its check."""
    return (attempted - failed) / attempted if attempted else 0.0


def result(checks, values, wanted):
    """The run's result object: correct only when every attempted job
    passed its check, and exactly the `wanted` metrics, with units."""
    attempted, failed = tally_checks(checks)
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def complete_spans(events):
    """The complete ("X") events of a Chrome trace as dicts with integer
    start/end microseconds."""
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        start = int(e["ts"])
        spans.append(dict(e, start=start, end=start + int(e.get("dur", 0))))
    return spans


def self_times(spans):
    """Self time per span, in microseconds, as a list aligned with `spans`.

    A span's self time is its duration minus the part of it that spans
    nested inside it on the same lane (pid, tid) cover. Where spans on one
    lane overlap without nesting (concurrent fetch cursors on a worker
    thread), each instant goes to the latest-started open span, so no
    instant is counted twice.
    """
    result = [0] * len(spans)
    lanes = {}
    for i, s in enumerate(spans):
        lanes.setdefault((s.get("pid", 0), s.get("tid", 0)), []).append(i)
    for members in lanes.values():
        points = sorted({spans[i]["start"] for i in members} |
                        {spans[i]["end"] for i in members})
        by_start = sorted(members, key=lambda i: spans[i]["start"])
        active = []  # heap of (-start, end, index): innermost on top
        nxt = 0
        for t, t_next in zip(points, points[1:]):
            while nxt < len(by_start) and spans[by_start[nxt]]["start"] <= t:
                i = by_start[nxt]
                heapq.heappush(active, (-spans[i]["start"], spans[i]["end"], i))
                nxt += 1
            while active and active[0][1] <= t:
                heapq.heappop(active)
            if active:
                result[active[0][2]] += t_next - t
    return result


def fold(events):
    """Per-name self-time totals (ms) and per-layer totals (ms) of one
    trace."""
    spans = complete_spans(events)
    by_name = {}
    by_layer = {}
    for s, self_us in zip(spans, self_times(spans)):
        ms = self_us / 1000.0
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + ms
        layer = SPAN_LAYER.get(s["name"])
        if layer is not None:
            by_layer[layer] = by_layer.get(layer, 0.0) + ms
    return by_name, by_layer


def shares(layer_ms, by_module=False):
    """Each layer's (or, by_module, each module's: the part of a layer
    name before its first dot) share of the total, largest first."""
    totals = {}
    for layer, ms in layer_ms.items():
        key = layer.split(".")[0] if by_module else layer
        totals[key] = totals.get(key, 0.0) + ms
    whole = sum(totals.values()) or 1.0
    return sorted(((k, v / whole) for k, v in totals.items()),
                  key=lambda kv: -kv[1])


def format_shares(pairs):
    return ", ".join("%s %.1f%%" % (k, 100.0 * v) for k, v in pairs)


def dist_gaps(events):
    """The multi-process round's serial ends, from existing spans: chunk
    writing runs from each Round start to the first dist-map start of that
    round, and collection from the last dist-reduce end to the Round end.
    Returns (chunk_write_ms, collect_ms, chunks, shards) summed over
    multi-process rounds."""
    spans = complete_spans(events)
    chunk_write = collect = chunks = shards = 0.0
    for r in spans:
        args = r.get("args", {})
        if r["name"] != "Round" or args.get("backend") != "multi_process":
            continue
        inside = [s for s in spans if s["start"] >= r["start"] and
                  s["end"] <= r["end"]]
        maps = [s["start"] for s in inside if s["name"] == "dist-map"]
        reduces = [s["end"] for s in inside if s["name"] == "dist-reduce"]
        if maps:
            chunk_write += (min(maps) - r["start"]) / 1000.0
        if reduces:
            collect += (r["end"] - max(reduces)) / 1000.0
        chunks += args.get("chunks", 0)
        shards += args.get("shards", 0)
    return chunk_write, collect, chunks, shards


def fetch_waits(events):
    """Summed stall and credit-wait time (ms) over every FetchRun span."""
    stall = credit = 0.0
    for s in complete_spans(events):
        if s["name"] == "FetchRun":
            stall += s.get("args", {}).get("stall_ms", 0.0)
            credit += s.get("args", {}).get("credit_wait_ms", 0.0)
    return stall, credit


def span_durations(events, name):
    """Summed duration (ms) of every span called `name`."""
    return sum((s["end"] - s["start"]) / 1000.0
               for s in complete_spans(events) if s["name"] == name)


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def quartile_spread(values):
    """(Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4)
    gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
