#!/usr/bin/env python3
"""End-to-end simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tiny128_tpcc --seed 1 \
        --seconds 20 --trace 0

Builds the tinydir library and the two benchmark executables from the
checkout's sources (RelWithDebInfo + LTO, in .bench_build/perfbench),
then runs one workload serially on one thread:

  --trace 0  the untraced executable repeats rounds of the workload's
             simulation cell, one cell per sub-seed of --seed, for
             --seconds; the end-to-end metrics are printed;
  --trace 1  the same untraced run, then one traced run of the first
             sub-seed's cell; the per-layer metrics are printed.

Every run checks its outputs (perfbench/checks.py). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# Raw documents of the last run of each workload and seed, for
# inspection (the full span tree of a traced run is there).
RESULTS = BUILD / "results"
WORKLOADS = ("tiny128_tpcc", "sparse64_apsi", "inllc64_mgrid")
# Each simulation process must finish well inside the benchmark's own
# 180 s limit.
CHILD_TIMEOUT_S = 150
MIN_ATTRIBUTED = 0.95
TRACKER_HOOKS = ("view", "update", "evictionUpdate", "onLlcDataVictim",
                 "onLlcSpillVictim", "tick")
DUMP_COUNTS = ("llc.accesses", "llc.miss_rate", "llc.coh_data_writes",
               "inval.messages", "inval.back", "fwd.owner", "nack.retries",
               "wb.dirty", "wb.notices", "dram.accesses", "dram.row_hits",
               "dir.hits", "dir.allocs", "dir.spills",
               "spill.saved_accesses", "lengthened.reads",
               "traffic.processor.bytes", "traffic.writeback.bytes",
               "traffic.coherence.bytes")
SOURCES = ("none", "llc", "dram", "owner", "sharer")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure and build both executables; output to stderr."""
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_json(cmd, keep_as):
    """Run one simulation process; keep and return its JSON document."""
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         timeout=CHILD_TIMEOUT_S)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / keep_as).write_bytes(out.stdout)
    return json.loads(out.stdout)


def run_untraced(workload, seed, seconds):
    spawned_ns = time.monotonic_ns()
    doc = run_json([str(BUILD / "perfbench_run"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds)],
                   f"{workload}-seed{seed}.json")
    # Cold set-up: process start up to the first simulated access.
    # Both clocks are CLOCK_MONOTONIC.
    if doc["cells"]:
        doc["cold_setup_s"] = (doc["cells"][0]["first_access_ns"] -
                               spawned_ns) * 1e-9
    return doc


def end_to_end(doc):
    cells = doc["cells"]
    # Modelled results: mean over the first round's sub-seeds (every
    # round repeats them exactly).
    first_round = [dict(c["dump"]) for c in cells[:doc["seeds_per_round"]]]
    return {
        "accesses_per_s": (statistics.median(
            c["accesses"] / c["run_s"] for c in cells), "1/s"),
        "setup_s": (doc["cold_setup_s"], "s"),
        "peak_rss_mb": (doc["peak_rss_kib"] / 1024.0, "MB"),
        "sim_cycles": (statistics.mean(
            d["exec_cycles"] for d in first_round), "cycles"),
        "noc_bytes": (statistics.mean(
            d["traffic.total.bytes"] for d in first_round), "bytes"),
    }


def per_layer(doc, trace):
    """Per-layer metrics from a traced run and its untraced twin."""
    spans = {}
    for s in trace["spans"]:
        spans[(s["name"], s["parent"])] = s
    by_name = {}
    for s in trace["spans"]:
        agg = by_name.setdefault(s["name"], {"count": 0, "total_ns": 0})
        agg["count"] += s["count"]
        agg["total_ns"] += s["total_ns"]

    def mean_ns(agg):
        return agg["total_ns"] / agg["count"] if agg["count"] else 0.0

    def span_ms(name):
        return spans[(name, "root")]["total_ns"] * 1e-6

    dump = dict(trace["dump"])
    accesses = trace["accesses"]
    ex = trace["execute"]
    hit_ns = mean_ns(ex["hit"])
    home_ns = mean_ns(ex["home"])
    home_txns = max(1, ex["home"]["count"])
    next_ns = mean_ns(by_name["workload.next"])
    tracker_under_exec = sum(
        s["total_ns"] for s in trace["spans"]
        if s["name"].startswith("tracker.") and s["parent"] == "sim.execute")
    tracker_per_txn = tracker_under_exec / home_txns
    untraced_ns = statistics.median(
        c["run_s"] / c["accesses"] for c in doc["cells"]
        if c["seed"] == trace["seed"]) * 1e9
    traced_ns = spans[("driver.loop", "root")]["raw_ns"] / accesses
    issued = (dump["core.loads"] + dump["core.stores"] +
              dump["core.ifetches"])
    wall = trace["wall_ns"]
    attributed = sum(s["raw_ns"] for s in trace["spans"]
                     if s["parent"] == "root")

    m = {
        "workload.next_ns": (next_ns, "ns"),
        "setup.layout_ms": (span_ms("setup.layout"), "ms"),
        "setup.streams_ms": (span_ms("setup.streams"), "ms"),
        "setup.system_ms": (span_ms("setup.system"), "ms"),
        "driver.frontend_ns": (
            untraced_ns - next_ns -
            (ex["hit"]["total_ns"] + ex["home"]["total_ns"]) / accesses,
            "ns"),
        "system.dump_ms": (span_ms("system.dump"), "ms"),
        "core.hit_ns": (hit_ns, "ns"),
        "core.priv_hit_ratio": (dump["core.priv_hits"] / issued, "ratio"),
    }
    for hook in TRACKER_HOOKS:
        agg = by_name.get("tracker." + hook, {"count": 0, "total_ns": 0})
        m[f"tracker.{hook}.calls"] = (agg["count"], "count")
        m[f"tracker.{hook}.ns"] = (mean_ns(agg), "ns")
    m["tracker.ns_per_txn"] = (tracker_per_txn, "ns")
    m["home.txn_ns"] = (home_ns, "ns")
    m["home.self_ns"] = (home_ns - hit_ns - tracker_per_txn, "ns")
    for name in DUMP_COUNTS:
        m[name] = (dump[name], "ratio" if name.endswith("rate") else
                   "bytes" if name.endswith("bytes") else "count")
    m["dir.hits_per_alloc"] = (
        dump["dir.hits"] / dump["dir.allocs"] if dump["dir.allocs"] else 0.0,
        "ratio")
    for src in SOURCES:
        lat = trace["latency"][src]
        m[f"lat.{src}.count"] = (lat["count"], "count")
        m[f"lat.{src}.p50_cycles"] = (lat["p50"], "cycles")
        m[f"lat.{src}.p99_cycles"] = (lat["p99"], "cycles")
    dram = trace["latency"]["dram"]
    m["dram.excess_cycles"] = (
        dram["mean"] - trace["unloaded_dram_cycles"] if dram["count"]
        else 0.0, "cycles")
    m["verify.check_ms"] = (span_ms("verify.check"), "ms")
    m["trace.overhead_frac"] = (traced_ns / untraced_ns - 1.0, "ratio")
    m["trace.unattributed_frac"] = (1.0 - attributed / wall, "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    build()
    doc = run_untraced(args.workload, args.seed, args.seconds)
    attempted = len(doc["cells"]) + doc["failed"]
    failed = doc["failed"]
    if len(doc["cells"]) < doc["seeds_per_round"]:
        log("perfbench: a cell of the first round failed")
        return 1
    problems = checks.check_untraced(doc)
    trace = None
    if args.trace:
        trace = run_json([str(BUILD / "perfbench_trace"), "--workload",
                          args.workload, "--seed", str(args.seed)],
                         f"{args.workload}-seed{args.seed}-trace.json")
        attempted += 1
        problems += checks.check_traced(trace, doc, MIN_ATTRIBUTED)
    problems += checks.self_check(doc, trace)
    for p in problems:
        log("perfbench: CHECK FAILED:", p)

    metrics = per_layer(doc, trace) if trace else end_to_end(doc)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
