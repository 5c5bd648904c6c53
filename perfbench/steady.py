#!/usr/bin/env python3
"""Steadiness check: run each workload N times and summarize every metric.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--trace 0|1]
        [--first-seed 1] [--workloads a,b,...] [--json OUT]

Runs perfbench/run.py once per (workload, seed), seeds first-seed ..
first-seed+runs-1, from the root of a checkout.  For every metric it
prints the median, the first and third quartile and the spread
(Q3 - Q1) / median -- the quartiles as statistics.quantiles(values, n=4)
gives them -- next to the bound BENCHMARK.json allows.  Exits 1 when a
run fails, reports correct=false, or a spread (setup_s excepted) reaches
a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="also write the summary here")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, args.seconds, args.trace)
            if res is None or not res["correct"]:
                print("%s seed %d: FAILED" % (workload, seed))
                ok = False
                continue
            shares.add((res["failed"], res["attempted"]) if res["failed"]
                       else 0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("== %s (%d runs, seconds=%d, trace=%d)"
              % (workload, args.runs, args.seconds, args.trace))
        print("   %-34s %14s %14s %14s %8s %6s"
              % ("metric", "median", "q1", "q3", "spread", "bound"))
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
                else (vals[0], 0, vals[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" \
                    and spread >= bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print("   %-34s %14.6g %14.6g %14.6g %8.4f %6s%s"
                  % (name + " [" + units[name] + "]", med, q1, q3, spread,
                     "" if bound is None else bound, flag))
            summary[workload][name] = {"unit": units[name], "median": med,
                                       "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
        print("   failed-share values: %s" % sorted(shares, key=str))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
