#!/usr/bin/env python3
"""The mrcost benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, worker and driver from the checkout (Release, into
.bench_build/), runs perfbench_driver for the workload, checks that every
job's output was correct, and prints the metrics named in BENCHMARK.json
as the last line of standard output:

  --trace 0  every end-to-end metric (timings from untraced jobs);
  --trace 1  every per-layer metric (the fold of a traced run).

Lines before the last carry context that is not a metric: the tail
percentile and sample count, the host's memory-streaming rate before and
after the run and its steal time during it, and (traced) each module's and
layer's share of self time.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import ledger  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hamming-join", "matmul-2round-spill", "sweep-dist")
DRIVER_TIMEOUT_S = 150

# Engine spans whose self time is reported by name.
ENGINE_SPANS = ("MapPartition", "MapSpill", "ShardGroup", "ReduceShard",
                "Finalize")
STORAGE_SPANS = ("SpillBlockRun", "Merge")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; None when the build fails."""
    try:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configured = subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr)
            if configured.returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return None
        built = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "-j", "4",
             "--target", "perfbench_driver"],
            stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        log("perfbench: cannot run cmake: %s" % err)
        return None
    if built.returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "bin", "perfbench_driver")


def stream_gb_per_s(mib=64, passes=8):
    """Host context: the rate of copying one 64 MiB buffer into another.
    Measured here, outside the driver, so it adds nothing to the driver's
    peak RSS."""
    a = bytearray(b"\x5a") * (mib << 20)
    b = bytearray(a)
    t0 = time.perf_counter()
    for i in range(passes):
        if i % 2:
            a[:] = b
        else:
            b[:] = a
    seconds = time.perf_counter() - t0
    return 2.0 * passes * (mib << 20) / 1e9 / seconds


def cpu_ticks():
    """The host's aggregate CPU time counters (/proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests between
    two cpu_ticks() readings (the eighth counter, "steal")."""
    if not before or not after or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_events(path):
    return load_json(path)["traceEvents"]


def end_to_end(s):
    """Every end-to-end metric from one untraced run's samples."""
    counts = s["counts"]
    attempted, failed = ledger.tally_checks(s["checks"])
    wall = s["wall_ms"]
    rung = ledger.tail_rung(s["min_jobs"])
    tail, beyond = ledger.nearest_rank(wall, rung)
    return {
        "job_ms_p50": ledger.median(wall),
        "job_ms_tail": tail,
        "inputs_per_s": counts["inputs"] * len(wall) / (sum(wall) / 1e3),
        "cpu_ms_per_job": ledger.median(s["cpu_ms"]),
        "setup_s": ledger.median(s["setup_ms"]) / 1e3,
        "peak_rss_mb": s["peak_rss_mb"],
        "bytes_shuffled_mb": counts["bytes_shuffled"] / 1e6,
        "replication_rate": counts["replication_rate"],
        "max_q": counts["max_q"],
        "r_over_bound": counts["replication_rate"] / counts["lower_bound_r"],
        "q_pred_error": ledger.worst_pred_error(counts["predicted_q"],
                                                counts["realized_q"]),
        "r_pred_error": ledger.worst_pred_error(counts["predicted_r"],
                                                counts["realized_r"]),
        "ok_share": ledger.ok_share(attempted, failed),
    }, "job_ms_tail is p%g over %d jobs, %d beyond it" % (
        rung, len(wall), beyond)


def per_layer(s):
    """Every per-layer metric from one traced run's samples and traces."""
    jobs = [load_events(path) for path in s["traces"]]
    registries = [load_json(path + ".metrics") for path in s["traces"]]
    folds = [ledger.fold(events) for events in jobs]
    gaps = [ledger.dist_gaps(events) for events in jobs]
    waits = [ledger.fetch_waits(events) for events in jobs]
    setup = load_events(s["setup_trace"])
    probes = load_events(s["probes_trace"])
    engine = s["engine"]
    med = ledger.median

    def per_span(trace, name):
        return med(sp["end"] - sp["start"]
                   for sp in ledger.complete_spans(trace)
                   if sp["name"] == name) / 1e3

    def counter(name):
        return med(r.get("counters", {}).get(name, 0) for r in registries)

    counts = s["counts"]
    errors = [ledger.pred_error(p, r) for p, r in
              zip(counts["predicted_q"], counts["realized_q"])]
    worst = errors.index(max(errors))
    m = {
        "engine.map_ms": med(e["map_ms"] for e in engine),
        "engine.shuffle_ms": med(e["shuffle_ms"] for e in engine),
        "engine.reduce_ms": med(e["reduce_ms"] for e in engine),
        "engine.barrier_wait_ms": med(e["barrier_wait_ms"] for e in engine),
        "engine.bytes_copied_mb": med(e["bytes_copied"] for e in engine) / 1e6,
        "engine.partition_skew_ratio":
            med(e["partition_skew_ratio"] for e in engine),
    }
    for name in ENGINE_SPANS:
        m["engine.self_ms." + name] = med(f[0].get(name, 0.0) for f in folds)
    m.update({
        "storage.spill_mb": med(e["spill_bytes"] for e in engine) / 1e6,
        "storage.spill_runs": med(e["spill_runs"] for e in engine),
        "storage.merge_passes": med(e["merge_passes"] for e in engine),
        "storage.compression_ratio":
            med(e["compression_ratio"] for e in engine),
    })
    for name in STORAGE_SPANS:
        m["storage.self_ms." + name] = med(f[0].get(name, 0.0) for f in folds)
    m.update({
        "storage.encode_mb_per_s": s["encode_mb_per_s"],
        "storage.decode_mb_per_s": s["decode_mb_per_s"],
        "dist.spawn_ms": per_span(probes, "bench.CoordinatorStart"),
        "dist.stop_ms": per_span(probes, "bench.CoordinatorStop"),
        "dist.chunk_write_ms": med(g[0] for g in gaps),
        "dist.map_task_ms": med(ledger.span_durations(e, "dist-map")
                                for e in jobs),
        "dist.reduce_task_ms": med(ledger.span_durations(e, "dist-reduce")
                                   for e in jobs),
        "dist.fetch_stall_ms": med(w[0] for w in waits),
        "dist.credit_wait_ms": med(w[1] for w in waits),
        "dist.collect_ms": med(g[1] for g in gaps),
        "dist.chunks": med(g[2] for g in gaps),
        "dist.shards": med(g[3] for g in gaps),
        "dist.reissued_tasks": counter("dist.reissued_tasks"),
        "dist.refetched_runs": counter("dist.refetched_runs"),
        "plan.build_ms": per_span(setup, "bench.Build"),
        "core.estimate_ms": per_span(setup, "bench.Estimate"),
        "core.predicted_q": counts["predicted_q"][worst],
        "core.realized_q": counts["realized_q"][worst],
        "obs.trace_overhead_pct":
            (med(s["traced_ms"]) / med(s["wall_ms"]) - 1.0) * 100.0,
        "obs.dropped_events": sum(s["dropped_events"]),
    })

    layers = {}
    for f in folds:
        for layer, ms in f[1].items():
            layers[layer] = layers.get(layer, 0.0) + ms
    context = "self-time shares by module: %s; by layer: %s" % (
        ledger.format_shares(ledger.shares(layers, by_module=True)),
        ledger.format_shares(ledger.shares(layers)))
    return m, context


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    driver = build()
    if driver is None:
        log("perfbench: build failed")
        return 1

    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        stream_before = stream_gb_per_s()
        ticks_before = cpu_ticks()
        out = os.path.join(work, "samples.json")
        env = dict(os.environ, TMPDIR=work)
        try:
            proc = subprocess.run(
                [driver, "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--work", work, "--out", out],
                env=env, stdout=sys.stderr, stderr=sys.stderr,
                timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
            return 1
        if proc.returncode != 0:
            log("perfbench: driver exited with %d" % proc.returncode)
            return 1
        steal = steal_share(ticks_before, cpu_ticks())
        stream_after = stream_gb_per_s()
        samples = load_json(out)
        if args.trace:
            values, context = per_layer(samples)
        else:
            values, context = end_to_end(samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench: %s seed %d: %s" % (args.workload, args.seed, context))
    print("perfbench: host memory stream %.2f GB/s before, %.2f GB/s after;"
          " steal %.1f%% of host CPU time during the run"
          % (stream_before, stream_after, 100.0 * steal))
    print(json.dumps(ledger.result(samples["checks"], values, wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
