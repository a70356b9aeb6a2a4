#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steadiness.py [--runs 5] [--workloads a,b,...]
                                    [--seed-base 1000] [--seconds S]

For every workload it makes two interleaved sets of --runs untraced runs
(set A and set B alternate, each run with its own seed), then prints, per
end-to-end metric, each set's median and quartiles and the spread of all
runs together. The sets agree when, for every metric, each set's quartile
spread (Q3 - Q1) / median stays within the metric's bound in BENCHMARK.json
(setup_s excepted), set B's median is no worse than set A's by more than
the bound, and both sets fail the same share of operations. It also records
host.chase_ns (a fixed cache-resident pointer chase, timed before and after
each run) and the host's steal time (CPU the hypervisor gave to other
guests, from /proc/stat) to tell a machine-speed swing from a program
change.

At start it refuses any workload whose thread plan could have more threads
runnable than this machine has cores. Exit code 0 when every workload
agrees, 1 otherwise, 2 when refused.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def thread_plan(workload):
    out = subprocess.run(RUN + ["--workload", workload, "--plan"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    name, count, plan = out.strip().split(" ", 2)
    return int(count), plan


def one_run(workload, seed, seconds):
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed:\n%s%s" %
                           (workload, seed, done.stdout, done.stderr))
    result = json.loads(lines[-1])
    chase, steal = None, None
    for line in lines:
        m = re.match(r"host\.chase_ns before ([\d.]+)\s+after ([\d.]+)", line)
        if m:
            chase = (float(m.group(1)), float(m.group(2)))
        m = re.match(r"host steal %: closed loop ([\d.]+)\s+open loop ([\d.]+)",
                     line)
        if m:
            steal = (float(m.group(1)), float(m.group(2)))
    return result, chase, steal


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (two sets per workload)")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: BENCHMARK.json)")
    args = parser.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    cores = os.cpu_count() or 1
    refused = False
    for w in workloads:
        count, plan = thread_plan(w)
        print("threads %-16s %s  (cores %d)" % (w, plan, cores))
        if count > cores:
            print("REFUSED: %s can have %d runnable threads on %d cores" %
                  (w, count, cores))
            refused = True
    if refused:
        return 2

    all_agree = True
    for w in workloads:
        sets = {"A": [], "B": []}
        seed = args.seed_base
        for i in range(args.runs):
            for name in ("A", "B"):
                result, chase, steal = one_run(w, seed, seconds)
                sets[name].append(result)
                print("%s set %s seed %d: correct=%s attempted=%d failed=%d "
                      "chase_ns=%s steal%%=%s" %
                      (w, name, seed, result["correct"], result["attempted"],
                       result["failed"],
                       "%.3f/%.3f" % chase if chase else "?",
                       "%.1f/%.1f" % steal if steal else "?"), flush=True)
                print("    " + "  ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in metrics), flush=True)
                seed += 1
        print("\n%s (%d + %d runs, %d s each)" % (w, args.runs, args.runs,
                                                   seconds))
        print("%-14s %-5s %12s %12s %12s %9s" %
              ("metric", "set", "Q1", "median", "Q3", "spread"))
        agree = all(r["correct"] for s in sets.values() for r in s)
        shares = {n: sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for n, s in sets.items()}
        if shares["A"] != shares["B"]:
            agree = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = {}
            for set_name, runs in list(sets.items()) + [
                    ("all", sets["A"] + sets["B"])]:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians[set_name] = med
                flag = ""
                if set_name != "all" and name != "setup_s" and spread > bound:
                    flag = "  > bound %.2f" % bound
                    agree = False
                print("%-14s %-5s %12.4f %12.4f %12.4f %8.1f%%%s" %
                      (name, set_name, q1, med, q3, 100 * spread, flag))
            drift = worse_by(medians["A"], medians["B"], m["better"])
            ok = drift <= bound
            agree = agree and ok
            print("%-14s B vs A median %+.1f%% worse (bound %.0f%%)%s" %
                  (name, 100 * drift, 100 * bound, "" if ok else "  FAIL"))
        print("failed share: A %.6f  B %.6f" % (shares["A"], shares["B"]))
        print("%s: sets %s\n" % (w, "AGREE" if agree else "DISAGREE"))
        all_agree = all_agree and agree
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
