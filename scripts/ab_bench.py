#!/usr/bin/env python3
"""Same-host A/B of the repo benchmark: a base revision against the working tree.

    scripts/ab_bench.py <base-rev>

Extracts <base-rev> with `git archive` into a temporary directory, removed on
exit, and builds it and the working tree with mudibench/run.py's build(). Then
runs ROUNDS rounds: each runs every workload at seed SEED once per side,
alternating which side goes first, with every child pinned to one CPU. run.py
checks each run and summarises each side; every end-to-end metric is judged
against its `better` and `bound` in BENCHMARK.json. Prints one row per
(workload, metric), then one JSON line to paste as a BENCH_history.jsonl
`ab_vs_parent` envelope. Exits 1 when a metric is worse than its bound or a
run was invalid, 2 when the base cannot be extracted or a side does not build.
"""
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # no __pycache__ under mudibench/
sys.path.insert(0, os.path.join(ROOT, "mudibench"))
import run  # noqa: E402  (mudibench/run.py)

ROUNDS = 12
SEED = 7


def base_runner(tree):
    """The base tree's own run.py, whose build() builds that tree."""
    spec = importlib.util.spec_from_file_location("base_run",
                                                  os.path.join(tree, "mudibench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_rounds(binaries):
    """(side, workload) -> valid records, and the number of invalid runs."""
    cpu = min(os.sched_getaffinity(0))
    records = {(side, w): [] for side in binaries for w in run.WORKLOADS}
    invalid = 0
    for r in range(ROUNDS):
        sides = sorted(binaries, reverse=r % 2 == 1)
        for workload in run.WORKLOADS:
            for side in sides:
                args = ["--workload", workload, "--seed", str(SEED)]
                rec = run.run_child(binaries[side], args, cpu)
                done = records[side, workload]
                problem = run.run_valid(rec, done[0]["digest"] if done else None)
                if problem is None:
                    done.append(rec)
                else:
                    invalid += 1
                    run.log("ab_bench: invalid %s %s run: %s" % (side, workload, problem))
    return records, invalid


def main():
    if len(sys.argv) != 2:
        run.log(__doc__)
        return 2
    parsed = subprocess.run(["git", "rev-parse", "--short", "--verify", sys.argv[1] + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True)
    if parsed.returncode != 0:
        run.log("ab_bench: not a revision: " + sys.argv[1])
        return 2
    rev = parsed.stdout.strip()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ab_bench.") as tree:
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        if archive.wait() != 0 or untar.returncode != 0:
            return 2
        base = base_runner(tree)
        if not (base.build() and run.build()):
            return 2
        records, invalid = run_rounds({"change": run.BINARY, "parent": base.BINARY})

    print("%-10s %-17s %12s %12s %7s %-7s %s" % ("workload", "metric", "parent " + rev, "change",
                                                "ratio", "verdict", "digests"))
    method = ("scripts/ab_bench.py: %d rounds of mudibench --seed %d per workload, alternating "
              "which side runs first, pinned to one CPU" % (ROUNDS, SEED))
    envelope = {"parent": rev, "method": method, "mudibench": {}}
    worse = []
    for workload in run.WORKLOADS:
        parent, change = records["parent", workload], records["change", workload]
        if not parent or not change:
            continue
        same = parent[0]["digest"] == change[0]["digest"]
        row = envelope["mudibench"][workload] = {"pairs": min(len(parent), len(change)),
                                                 "digest_equal": same}
        for metric in end_to_end:
            name = metric["name"]
            p, c = (run.summarise(name, [r["end_to_end"][name] for r in side])
                    for side in (parent, change))
            ratio = c / p
            bound = metric["bound"]
            bad = ratio > 1 + bound if metric["better"] == "lower" else ratio < 1 - bound
            if bad:
                worse.append("%s %s" % (workload, name))
            row[name] = {"parent": round(p, 6), "change": round(c, 6), "ratio": round(ratio, 4)}
            print("%-10s %-17s %12.6g %12.6g %7.3f %-7s %s" % (workload, name, p, c, ratio,
                  "WORSE" if bad else "ok", "equal" if same else "DIFFER"))
    print(json.dumps({"ab_vs_parent": envelope}))
    if worse or invalid:
        run.log("ab_bench: FAIL: %d invalid run(s); worse than bound: %s"
                % (invalid, ", ".join(worse) or "none"))
        return 1
    run.log("ab_bench: PASS against %s" % rev)
    return 0


if __name__ == "__main__":
    sys.exit(main())
