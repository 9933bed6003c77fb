#!/usr/bin/env python3
"""Benchmark runner for the Mudi simulator.

    python3 mudibench/run.py --workload fleet|coldstart|chaos --seed N \
        --seconds S --trace 0|1
    python3 mudibench/run.py --selftest

Run from the repository root. Builds mudibench/ (and with it src/) into
.bench_build/mudibench, then runs one experiment per child process, again and
again for --seconds, and prints medians. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced runs of `mudibench`,
which keeps the default allocator. --trace 1 alternates traced runs of
`mudibench_traced` (the same program plus the decorators and allocation
counting) with untraced ones, and reports the per-layer metrics from the
traced runs, plus the tracing overhead (traced minus untraced run_s).

Every run is checked: it must end at its horizon (a run that stops on the
liveness backstop, stalls or crashes counts as failed), and every run of one
seed, traced or not, must produce the same result digest.

Host times are wall-clock on the machine running this script; everything
marked simulated is simulated time and repeats exactly for a seed. The model
is unvalidated against real GPUs, so no accuracy error is reported.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mudibench")
BINARY = os.path.join(BUILD_DIR, "mudibench")
TRACED_BINARY = os.path.join(BUILD_DIR, "mudibench_traced")

WORKLOADS = ("fleet", "coldstart", "chaos")

# Offline model fitting fans out over MUDI_FIT_THREADS workers. With the
# default (auto) cold Initialize swung 0.55-1.43 s over four back-to-back
# runs, with one worker 2.04-2.23 s; each child is also pinned to one CPU.
FIT_THREADS = 1

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150

# name -> (unit, better). Host time unless marked simulated.
END_TO_END = {
    "setup_s": ("s", "lower"),             # construction + Initialize (profiling, fit)
    "run_s": ("s", "lower"),               # Run() after Initialize
    "sim_s_per_wall_s": ("s/s", "higher"),  # simulated seconds per host second of run_s
    "peak_rss_mb": ("MB", "lower"),        # VmHWM of the one-run process
    "retune_p95_us": ("us", "lower"),      # p95 of policy.on_qps_change (Fig. 18b tuning)
    "goodput_rps": ("1/s", "higher"),      # simulated: served requests per simulated second
}

# Host times are summarised by their best quartile over a run's processes
# (the lower quartile of times, the upper one of rates). On a shared host,
# co-tenant load slows whole stretches of consecutive processes by up to
# 1.5x; the median flips between the fast and the slow mode as their share
# crosses one half, while the best quartile stays on the uncontended speed
# until three quarters of the run is slowed. The quartile is an order
# statistic, so it is a figure some process measured however few ran.
# Counts and simulated values repeat exactly, so their median is their value.
HOST_TIMES = ("setup_s", "run_s", "sim_s_per_wall_s", "retune_p95_us")


def summarise(name, values):
    if name not in HOST_TIMES:
        return statistics.median(values)
    best_first = sorted(values, reverse=END_TO_END[name][1] == "higher")
    return best_first[(len(best_first) - 1) // 4]


PER_LAYER = {
    "exp.self_s": "s",
    "exp.self_ns_per_event": "ns/event",
    "exp.allocs_per_event": "allocs/event",
    "exp.slo_violation_pct": "%",
    "exp.failed_request_pct": "%",
    "exp.tasks_unfinished": "count",
    "sim.events_fired": "count",
    "sim.events_scheduled": "count",
    "sim.events_cancelled": "count",
    "sim.events_per_s": "1/s",
    "workload.qps_at.calls": "count",
    "workload.qps_at.ns_per_call": "ns",
    "core.initialize_s": "s",
    "core.initialize_share_pct": "%",
    "core.hooks_share_pct": "%",
    "core.select_device.calls": "count",
    "core.select_device.p50_us": "us",
    "core.select_device.p95_us": "us",
    "core.on_placed.calls": "count",
    "core.on_placed.total_ms": "ms",
    "core.on_qps_change.calls": "count",
    "core.on_qps_change.total_ms": "ms",
    "core.on_qps_change.p50_us": "us",
    "core.on_completed.calls": "count",
    "core.on_device_failed.calls": "count",
    "core.on_device_recovered.calls": "count",
    "core.on_ctrl_restart.calls": "count",
    "core.tuning_iterations": "count",
    "mudi.offline_profile_ms": "ms",
    "mudi.fit_ms": "ms",
    "mudi.gp_lcb_ms": "ms",
    "mudi.tune_device_ms": "ms",
    "ml.fit_cache.hits": "count",
    "ml.fit_cache.misses": "count",
    "ml.fit_threads": "count",
    "env.probe_inference.calls": "count",
    "env.probe_inference.total_ms": "ms",
    "env.probe_training.calls": "count",
    "env.probe_training.total_ms": "ms",
    "env.measured_qps.calls": "count",
    "env.measured_p99.calls": "count",
    "env.measured_p99.ns_per_call": "ns",
    "env.apply_inference.calls": "count",
    "env.apply_training.calls": "count",
    "env.set_paused.calls": "count",
    "ctrl.configs_published": "count",
    "ctrl.configs_applied": "count",
    "ctrl.config_apply_ratio": "ratio",
    "ctrl.retries": "count",
    "ctrl.watch_delivered": "count",
    "ctrl.watch_dropped": "count",
    "ctrl.stale_reads": "count",
    "ctrl.unavailable_reads": "count",
    "ctrl.mean_recovery_ms": "ms",
    "fault.device_failures": "count",
    "fault.trainings_displaced": "count",
    "fault.trainings_replaced": "count",
    "fault.rerouted_requests": "count",
    "fault.failed_requests": "count",
    "mem.swap_events": "count",
    "mem.swap_total_mb": "MB",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

# Counts that must be non-zero on chaos and zero elsewhere: the workload
# exercises the fault and control-plane paths, the others bypass them.
CHAOS_ONLY = ("ctrl.configs_published", "ctrl.watch_delivered", "fault.device_failures",
              "fault.rerouted_requests", "core.on_device_failed.calls",
              "core.on_ctrl_restart.calls")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False when it fails."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("mudibench: no src/ next to the benchmark; nothing to build")
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        log("mudibench: cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
                     + generator)
    steps.append([cmake, "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("mudibench: build failed: " + " ".join(cmd))
            return False
    return all(os.access(binary, os.X_OK) for binary in (BINARY, TRACED_BINARY))


def child_env():
    # Drop MUDI_* overrides (trace files, telemetry sinks) from the caller's
    # environment so every run is the same run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MUDI_")}
    env["MUDI_FIT_THREADS"] = str(min(FIT_THREADS, os.cpu_count() or 1))
    return env


def run_child(binary, args, cpu):
    """One experiment in its own process on one CPU; the parsed JSON line, or None."""
    # Pinned, so the run never migrates between CPUs and loses its caches.
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log("mudibench: child timed out: " + " ".join(args))
        return None
    if proc.returncode != 0:
        log("mudibench: child failed (rc=%d): %s\n%s" % (proc.returncode, " ".join(args),
                                                          proc.stderr[-2000:]))
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("mudibench: unreadable child output: " + proc.stdout[-500:])
        return None


def run_valid(rec, reference_digest):
    """Why a child run is invalid, or None when it is valid."""
    if rec is None:
        return "crashed or timed out"
    if rec["termination"] not in ("horizon", "completed"):
        return "ended by %s with %d of %d tasks unfinished" % (
            rec["termination"], rec["tasks_total"] - rec["tasks_completed"], rec["tasks_total"])
    if reference_digest is not None and rec["digest"] != reference_digest:
        return "digest %s != %s" % (rec["digest"], reference_digest)
    for name in END_TO_END:
        value = rec["end_to_end"][name]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            return "end-to-end metric %s = %r" % (name, value)
    return None


def median_of(records, section, name):
    return statistics.median(r[section][name] for r in records)


def describe(name, values):
    kind = ("best quartile; median %.6g" % statistics.median(values)
            if name in HOST_TIMES else "median")
    return "%s; min %.6g max %.6g n=%d" % (kind, min(values), max(values), len(values))


def per_layer_metrics(traced, untraced):
    m = {name: median_of(traced, "per_layer", name) for name in PER_LAYER
         if name in traced[0]["per_layer"]}
    run_traced = summarise("run_s", [r["end_to_end"]["run_s"] for r in traced])
    run_untraced = summarise("run_s", [r["end_to_end"]["run_s"] for r in untraced])
    setup_traced = summarise("setup_s", [r["end_to_end"]["setup_s"] for r in traced])
    m["trace.overhead_s"] = run_traced - run_untraced
    m["trace.overhead_pct"] = (run_traced - run_untraced) / run_untraced * 100.0
    m["core.initialize_share_pct"] = m["core.initialize_s"] / (setup_traced + run_traced) * 100.0
    m["core.hooks_share_pct"] = median_of(traced, "per_layer", "core.hooks_s") / run_traced * 100.0
    return m


def purpose_problems(workload, m):
    """Checks that the traced run shows what the workload was chosen for."""
    problems = []
    for name in CHAOS_ONLY:
        if (m[name] > 0) != (workload == "chaos"):
            problems.append("%s = %g on %s" % (name, m[name], workload))
    if workload == "fleet" and m["core.hooks_share_pct"] >= 20.0:
        problems.append("policy hooks take %.1f%% of fleet's run_s" % m["core.hooks_share_pct"])
    if workload == "coldstart" and m["core.initialize_share_pct"] <= 50.0:
        problems.append("Initialize is only %.1f%% of coldstart's setup_s + run_s"
                        % m["core.initialize_share_pct"])
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the decorators leave results unchanged")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([TRACED_BINARY, "--selftest"], cwd=ROOT, env=child_env(),
                              timeout=CHILD_TIMEOUT_S).returncode

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    records = []        # valid runs, in order
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    # Runs start while the next one is expected to end inside --seconds. A
    # trace run needs at least two of each kind, an untraced run three.
    minimum = 4 if args.trace else 3
    reference = None
    # Children rotate over the allowed CPUs, so every run samples each alike.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        elapsed = time.monotonic() - start
        expected = statistics.median(durations) if durations else 0.0
        if attempted >= minimum and elapsed + expected > args.seconds:
            break
        traced = args.trace == 1 and attempted % 2 == 0
        t0 = time.monotonic()
        rec = run_child(TRACED_BINARY if traced else BINARY,
                        base + (["--traced"] if traced else []), cpus[attempted % len(cpus)])
        durations.append(time.monotonic() - t0)
        attempted += 1
        problem = run_valid(rec, reference)
        if problem is not None:
            failed += 1
            log("mudibench: invalid run %d: %s" % (attempted, problem))
            if attempted >= minimum and not records:
                break
            continue
        reference = rec["digest"]
        records.append(rec)

    traced_recs = [r for r in records if r["traced"]]
    untraced_recs = [r for r in records if not r["traced"]]
    if not untraced_recs or (args.trace and not traced_recs):
        log("mudibench: no valid run")
        return 1

    first = untraced_recs[0]
    prov = first["provenance"]
    print("workload %s seed %d: %d runs (%d traced), %d failed; termination %s at %.0f s "
          "simulated, %d of %d tasks finished; digest %s"
          % (args.workload, args.seed, attempted, len(traced_recs), failed,
             first["termination"], first["sim_end_s"], first["tasks_completed"],
             first["tasks_total"], first["digest"]))
    print("provenance: build %s, %s, tracing compiled in %d, fit threads %d, nproc %d"
          % (prov["cmake_build_type"], prov["compiler"], prov["tracing_compiled_in"],
             prov["fit_threads"], prov["nproc"]))

    correct = failed == 0
    if args.trace == 0:
        metrics = {}
        for name, (unit, _) in END_TO_END.items():
            values = [r["end_to_end"][name] for r in untraced_recs]
            metrics[name] = {"value": summarise(name, values), "unit": unit}
            print("%-20s %14.6g %-4s %s" % (name, metrics[name]["value"], unit,
                                           describe(name, values)))
        # Simulated outcomes that are zero or undefined on some workloads:
        # reported here, and per layer, but not gated.
        layer = first["per_layer"]
        print("%-20s %14.6g %-4s simulated" % ("slo_violation_pct",
                                              layer["exp.slo_violation_pct"], "%"))
        print("%-20s %14.6g %-4s simulated" % ("failed_request_pct",
                                              layer["exp.failed_request_pct"], "%"))
        if first["ct_mean_s"] is None:
            print("%-20s %14s      withheld: %d tasks unfinished" % (
                "ct_mean_s", "-", first["tasks_total"] - first["tasks_completed"]))
        else:
            print("%-20s %14.6g %-4s simulated" % ("ct_mean_s", first["ct_mean_s"], "s"))
    else:
        layer = per_layer_metrics(traced_recs, untraced_recs)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            print("%-32s %14.6g %s" % (name, layer[name], unit))
        problems = purpose_problems(args.workload, layer)
        for p in problems:
            log("mudibench: workload purpose not met: " + p)
        correct = correct and not problems

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
