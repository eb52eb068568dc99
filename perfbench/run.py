#!/usr/bin/env python3
"""Benchmark for d2sim: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload avail-churn --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the d2 libraries plus the d2bench driver) into
.bench_build/perfbench, runs the workload for about --seconds seconds and
prints, as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times product runs (d2bench run: the core::*Experiment::run /
core::run_durability entry points, metrics and tracing off) and set-ups
(d2bench setup) in separate processes and reports the end-to-end metrics
as medians. --trace 1 alternates untraced product runs with traced
rebuilds (d2bench traced) and reports the per-layer ledger. Every run's
simulated results are checked; see README.md for the checks.
"""
import argparse
import json
import os
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
D2BENCH = os.path.join(BUILD, "d2bench")

WORKLOADS = ("avail-churn", "perf-lookup", "webcache-churn", "repair-ec")
MIN_REPS = 3          # timed product runs (and set-up processes) per run
SETUP_MIN_S = 0.5      # set-ups repeat in one process for this long
CHILD_TIMEOUT_S = 120  # one d2bench process, then it is killed


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "d2bench"], check=True, stdout=sys.stderr)


def timed(args):
    """Runs d2bench, timing it from spawn to exit with its peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([D2BENCH] + args, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    # Reaped by wait4 above; record the status so Popen does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("d2bench %s exited %d" % (" ".join(args),
                                                    proc.returncode))
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]), wall, usage.ru_maxrss / 1024.0


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def check_sim(workload, sim, ref):
    """Checks one run's simulated results against `ref` (d2bench check)."""
    if workload == "avail-churn":
        expect(sim["tasks"] == ref["tasks"],
               "tasks %d != re-segmented %d" % (sim["tasks"], ref["tasks"]))
        expect(0 < sim["failed"] <= sim["tasks"],
               "failed tasks %d outside (0, tasks]" % sim["failed"])
        expect(sim["unknown_key_gets"] == 0, "gets of unknown keys")
        expect(ref["mass_failure_nodes"] >= 0.05 * ref["nodes"],
               "no correlated mass failure inside the replay")
    elif workload == "perf-lookup":
        expect(sim["lookups"] == sim["cache_misses"],
               "router lookups != lookup-cache misses")
        expect(abs(sim["lookup_messages_per_node"] * sim["nodes"]
                   - sim["lookup_messages"]) < 1e-6 * max(1, sim["lookup_messages"]),
               "router messages != msgs/node x nodes")
        expect(sim["tcp_cold_starts"] <= sim["tcp_transfers"],
               "tcp cold starts > transfers")
        groups = sim["groups"]
        expect(len(groups) > 0, "no access groups replayed")
        expect(sim["tcp_transfers"] == sum(g[3] for g in groups),
               "tcp transfers != windowed block gets")
        bytes_of = {g: (b, n) for g, b, n in ref["group_bytes"]}
        bps = ref["uplink_bps"]
        for gid, _user, latency_us, gets in groups:
            expect(gid in bytes_of and bytes_of[gid][1] == gets,
                   "group %d: block gets disagree with the file layer" % gid)
            # Sequential gets: at least the serialization time of the
            # group's bytes (1 us truncation slack per get).
            floor_us = bytes_of[gid][0] * 8e6 / bps - gets
            expect(latency_us >= floor_us,
                   "group %d: latency %d us < bytes/uplink %.0f us"
                   % (gid, latency_us, floor_us))
    elif workload == "webcache-churn":
        days = sim["days"]
        expect(len(days) == 7, "expected 7 day rows, got %d" % len(days))
        for i in range(len(days) - 1):
            w, r, _l, t = days[i]
            expect(days[i + 1][3] == t + w - r,
                   "day %d: resident %d != %d + %d - %d"
                   % (i + 1, days[i + 1][3], t, w, r))
        expect(sim["samples"] > 0 and sim["min_positive_max_over_mean"] >= 1.0,
               "max/mean load below 1")
        expect(sim["empty_samples"] <= 1,
               "max/mean undefined after the first sample")
    elif workload == "repair-ec":
        expect(sim["blocks"] > 0, "no blocks")
        expect(sim["verified_reconstructions"] == sim["repairs_completed"],
               "verified reconstructions != completed repairs")
        expect(sim["repairs_completed"] <= sim["repairs_started"],
               "completed repairs > started")
        expect(sim["blocks_lost"] <= sim["blocks"], "lost > blocks")


def check_facts(workload, sim, facts, ref):
    """Checks on simulated facts only the traced rebuild sees."""
    if workload == "webcache-churn":
        expect(facts["hits"] + facts["misses"] + facts["version_replacements"]
               == ref["requests"],
               "hits + misses (incl. stale re-fetches) != requests")
        expect(facts["fresh_hits"] == facts["hits"],
               "request() hit results != cache hit count")
        w, r, _l, t = sim["days"][-1]
        expect(facts["resident_bytes_last_boundary"] == t + w - r,
               "resident bytes at the last day boundary != T + W - R")


def units_of_work(workload, sim, ref):
    """Replayed work items of one run, for tasks_per_s (see README.md)."""
    if workload == "avail-churn":
        return sim["tasks"]
    if workload == "perf-lookup":
        return ref["records"]
    if workload == "webcache-churn":
        return ref["requests"]
    # Stored blocks, not completed repairs: the repair count varies with the
    # seed by a few percent and host time does not follow it.
    return sim["blocks"]


def host_stamp(workload):
    built, _, _ = timed(["host", "--workload=" + workload])
    if built.get("build_type") not in ("Release", "RelWithDebInfo") or \
            not built.get("optimized") or built.get("paranoid"):
        raise RuntimeError("refusing to time build %r" % built)
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"cores": os.cpu_count(), "ram_gb": round(mem_kb / 2**20, 1),
            "compiler": built["compiler"], "build_type": built["build_type"],
            "arc_workers": built["arc_workers"]}


def run_e2e(workload, seed, seconds, ref):
    args = ["--workload=" + workload, "--seed=%d" % seed]
    deadline = time.perf_counter() + seconds
    if workload == "avail-churn":
        # Worker-count determinism: the same run at one arc worker.
        w1, _, _ = timed(["run"] + args + ["--arc-workers=1"])
    run_s, setup_s, rss = [], [], []
    first = None
    attempted = failed = 0
    round_s = 0.0
    # Rounds of (set-up process while fewer than MIN_REPS, product run)
    # until the next round would end past the deadline.
    while len(run_s) < MIN_REPS or time.perf_counter() + round_s < deadline:
        attempted += 1
        r0 = time.perf_counter()
        try:
            if len(setup_s) < MIN_REPS:
                setup, _, _ = timed(["setup", "--min-seconds=%g" % SETUP_MIN_S]
                                    + args)
                setup_s.append(setup["setup_s"])
            out, wall, peak = timed(["run"] + args)
        except RuntimeError as e:
            log("run failed: %s" % e)
            failed += 1
            if failed > MIN_REPS:
                break
            continue
        round_s = time.perf_counter() - r0
        run_s.append(wall)
        rss.append(peak)
        if first is None:
            first = out["sim"]
            check_sim(workload, first, ref)
            if workload == "avail-churn":
                expect(w1["sim"] == first,
                       "output at 4 arc workers != output at 1 worker")
        expect(out["sim"] == first, "repeated run gave different results")
    if not run_s:
        raise CheckFailed("no run completed")
    metrics = {
        "run_s": (median(run_s), "s"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (median(rss), "MB"),
        "tasks_per_s": (units_of_work(workload, first, ref) / median(run_s),
                        "tasks/s"),
    }
    log("%s seed %d: %d runs, run_s %s, setup_s %s" % (
        workload, seed, len(run_s), ["%.3f" % v for v in run_s],
        ["%.3f" % v for v in setup_s]))
    return metrics, attempted, failed


def run_traced(workload, seed, seconds, ref):
    args = ["--workload=" + workload, "--seed=%d" % seed]
    untraced_s, traced_s, layers = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while not traced_s or time.perf_counter() + round_s < deadline:
        attempted += 1
        r0 = time.perf_counter()
        try:
            plain, plain_wall, _ = timed(["run"] + args)
            traced, traced_wall, _ = timed(["traced"] + args)
            round_s = time.perf_counter() - r0
        except RuntimeError as e:
            log("run failed: %s" % e)
            failed += 1
            if failed > MIN_REPS:
                break
            continue
        check_sim(workload, plain["sim"], ref)
        expect(traced["sim"] == plain["sim"],
               "traced rebuild's results differ from the product run's")
        check_facts(workload, traced["sim"], traced["facts"], ref)
        untraced_s.append(plain_wall)
        traced_s.append(traced_wall)
        layers.append(traced["layers"])
    if not traced_s:
        raise CheckFailed("no traced run completed")
    metrics = {}
    for name in layers[0]:
        metrics[name] = (median([l[name] for l in layers]), unit_of(name))
    metrics["bench.trace_overhead_s"] = (median(traced_s) - median(untraced_s),
                                        "s")
    return metrics, attempted, failed


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    if name.endswith(("_p50", "_p99")):
        return "hops"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    try:
        stamp = host_stamp(a.workload)
        ref, _, _ = timed(["check", "--workload=" + a.workload,
                           "--seed=%d" % a.seed])
    except RuntimeError as e:
        log(str(e))
        return 1
    print("host " + json.dumps(stamp, sort_keys=True))
    try:
        if a.trace:
            metrics, attempted, failed = run_traced(a.workload, a.seed,
                                                    a.seconds, ref)
        else:
            metrics, attempted, failed = run_e2e(a.workload, a.seed,
                                                 a.seconds, ref)
    except CheckFailed as e:
        log("CHECK FAILED: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 0
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
