#!/usr/bin/env python3
"""Tests of the benchmark's own logic (ledger.py, and run.py's metric
assembly on hand-built samples). No build needed:

    python3 perfbench/test_ledger.py
"""

import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import ledger  # noqa: E402
import run  # noqa: E402


def span(name, start, end, pid=0, tid=0, **args):
    return {"name": name, "ph": "X", "ts": start, "dur": end - start,
            "pid": pid, "tid": tid, "args": args}


class TailRungTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 40 samples: p75 is rank 30 with exactly 10 beyond; p90 has 4.
        self.assertEqual(ledger.tail_rung(40), 75)

    def test_one_short_falls_back_a_rung(self):
        # 39 samples: p75 is rank 30 with 9 beyond, so p50.
        self.assertEqual(ledger.tail_rung(39), 50)

    def test_hundred_samples_reach_p90(self):
        self.assertEqual(ledger.tail_rung(100), 90)

    def test_too_few_samples(self):
        self.assertIsNone(ledger.tail_rung(19))

    def test_every_longer_run_keeps_ten_beyond(self):
        # The rung is fixed from the guaranteed count; any run at least
        # that long still has 10 samples beyond it, in any order.
        rung = ledger.tail_rung(40)
        for n in range(40, 200):
            samples = [(7 * i) % n for i in range(n)]
            value, beyond = ledger.nearest_rank(samples, rung)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertEqual(value, sorted(samples)[n - beyond - 1])


class SelfTimeFoldTest(unittest.TestCase):
    def test_nested_spans(self):
        # One lane: A contains B (which contains C) and D; another lane's E
        # overlaps A in time but is not its child.
        spans = ledger.complete_spans([
            span("A", 0, 100), span("B", 10, 40), span("C", 20, 30),
            span("D", 50, 70), span("E", 0, 50, tid=1)])
        self.assertEqual(ledger.self_times(spans), [50, 20, 10, 20, 50])

    def test_overlapping_siblings_are_not_counted_twice(self):
        # Two fetch cursors open on one worker thread inside a reduce.
        spans = ledger.complete_spans([
            span("dist-reduce", 0, 100, pid=2), span("FetchRun", 10, 80, pid=2),
            span("FetchRun", 20, 90, pid=2)])
        selfs = ledger.self_times(spans)
        self.assertEqual(selfs, [20, 10, 70])
        self.assertEqual(sum(selfs), 100)

    def test_fold_sums_by_name_and_layer(self):
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0},
            span("bench.Execute", 0, 1000),
            span("ReduceShard", 0, 600, tid=1),
            span("ReduceShard", 0, 400, tid=2),
            span("SpillBlockRun", 100, 300, tid=2),
            span("MapSpill", 600, 900, tid=1),
        ]
        by_name, by_layer = ledger.fold(events)
        self.assertAlmostEqual(by_name["ReduceShard"], 0.8)
        self.assertAlmostEqual(by_name["SpillBlockRun"], 0.2)
        self.assertAlmostEqual(by_name["bench.Execute"], 1.0)
        # The benchmark's own container span belongs to no layer.
        self.assertEqual(by_layer, {"engine.reduce": 0.8, "storage.spill": 0.2,
                                    "engine.map": 0.3})
        modules = dict(ledger.shares(by_layer, by_module=True))
        self.assertAlmostEqual(modules["engine"], 1.1 / 1.3)

    def test_dist_gaps(self):
        events = [
            span("Round", 1000, 5000, backend="multi_process", chunks=8,
                 shards=1),
            span("dist-map", 1500, 2500, pid=2),
            span("dist-map", 1600, 2600, pid=3),
            span("dist-reduce", 2700, 4000, pid=2),
            span("FetchRun", 2700, 3900, pid=2, stall_ms=1.5,
                 credit_wait_ms=0.25),
            span("Round", 0, 100, backend="in_process", chunks=4, shards=4),
        ]
        self.assertEqual(ledger.dist_gaps(events), (0.5, 1.0, 8, 1))
        self.assertEqual(ledger.fetch_waits(events), (1.5, 0.25))
        self.assertEqual(ledger.span_durations(events, "dist-map"), 2.0)


class PredictionErrorTest(unittest.TestCase):
    def test_symmetric(self):
        self.assertEqual(ledger.pred_error(2, 4), 2)
        self.assertEqual(ledger.pred_error(4, 2), 2)
        self.assertEqual(ledger.pred_error(3, 3), 1)

    def test_zero_sides(self):
        self.assertEqual(ledger.pred_error(0, 0), 1)
        self.assertTrue(math.isinf(ledger.pred_error(0, 5)))

    def test_worst_round(self):
        self.assertEqual(
            ledger.worst_pred_error([1.04, 8], [302, 8]), 302 / 1.04)
        self.assertEqual(ledger.worst_pred_error([], []), 1)


class FailureCountingTest(unittest.TestCase):
    WANTED = [{"name": "ok_share", "unit": "ratio"}]

    def test_tally(self):
        self.assertEqual(ledger.tally_checks([1, 1, 0, 1]), (4, 1))
        self.assertEqual(ledger.ok_share(4, 1), 0.75)

    def test_a_failed_job_makes_the_run_incorrect(self):
        result = ledger.result([1, 0, 1], {"ok_share": 2 / 3}, self.WANTED)
        self.assertEqual((result["correct"], result["attempted"],
                          result["failed"]), (False, 3, 1))

    def test_all_passed(self):
        result = ledger.result([1, 1], {"ok_share": 1.0, "extra": 5},
                               self.WANTED)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"],
                         {"ok_share": {"value": 1.0, "unit": "ratio"}})

    def test_nothing_attempted_is_not_correct(self):
        self.assertFalse(ledger.result([], {"ok_share": 0}, self.WANTED)
                         ["correct"])


class MetricAssemblyTest(unittest.TestCase):
    """run.py yields every metric BENCHMARK.json names, from samples shaped
    like the driver's."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        engine = {"map_ms": 1, "shuffle_ms": 1, "reduce_ms": 1,
                  "barrier_wait_ms": 0, "bytes_copied": 1e6,
                  "partition_skew_ratio": 1, "spill_bytes": 0,
                  "spill_runs": 0, "merge_passes": 0, "compression_ratio": 0}
        self.samples = {
            "checks": [1] * 40, "wall_ms": list(range(100, 140)),
            "cpu_ms": [150] * 40, "min_jobs": 40, "setup_ms": [3, 4, 5],
            "peak_rss_mb": 140, "engine": [engine] * 40,
            "counts": {"inputs": 1000, "bytes_shuffled": 2e6,
                       "replication_rate": 3, "max_q": 64,
                       "lower_bound_r": 3, "predicted_q": [64],
                       "realized_q": [64], "predicted_r": [3],
                       "realized_r": [3]},
        }

    def test_end_to_end(self):
        values, context = run.end_to_end(self.samples)
        for m in self.spec["end_to_end"]:
            self.assertIn(m["name"], values)
            self.assertGreater(values[m["name"]], 0, m["name"])
        self.assertEqual(values["job_ms_tail"], 129)
        self.assertIn("p75 over 40 jobs, 10 beyond it", context)

    def test_per_layer(self):
        with tempfile.TemporaryDirectory() as tmp:
            def write(name, doc):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump(doc, f)
                return path
            trace = write("job.trace.json", {"traceEvents": [
                span("bench.Execute", 0, 1000),
                span("ReduceShard", 0, 900, tid=1)]})
            write("job.trace.json.metrics", {"counters": {}})
            self.samples.update({
                "traces": [trace], "traced_ms": [110], "dropped_events": [0],
                "encode_mb_per_s": 400, "decode_mb_per_s": 450,
                "setup_trace": write("setup.json", {"traceEvents": [
                    span("bench.Build", 0, 3000),
                    span("bench.Estimate", 3000, 3001)]}),
                "probes_trace": write("probes.json", {"traceEvents": []}),
            })
            values, context = run.per_layer(self.samples)
        for m in self.spec["per_layer"]:
            self.assertIn(m["name"], values)
        self.assertEqual(values["engine.self_ms.ReduceShard"], 0.9)
        self.assertEqual(values["plan.build_ms"], 3.0)
        self.assertIn("engine.reduce 100.0%", context)


if __name__ == "__main__":
    unittest.main()
