#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports its spread.

    python3 bench/e2e/measure.py --out DIR [--runs 10] [--first-seed 1]
                                 [--seconds 20] [--trace] [WORKLOAD ...]

Run it from the root of a checkout.  Each run is one `run.py` invocation
with its own seed (first-seed, first-seed + 1, ...); the full cbe-e2e-v1
document of every run is copied to DIR/<workload>.seed<N>.json, and with
--trace the span file too.  At the end it prints, for every end_to_end
metric of BENCHMARK.json, the median over the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to a third of the metric's bound.

Two such directories are what cbe_e2e_compare takes as A and B.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ["mgps_sweep", "bootstrap_job", "jobsvc_openloop", "native_offload"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    run_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "e2e", "run")
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, "bench/e2e/run.py", "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print("%s seed %d: run.py failed" % (w, seed))
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            stem = os.path.join(args.out, "%s.seed%d" % (w, seed))
            shutil.copy(os.path.join(run_dir, w + ".json"), stem + ".json")
            if args.trace:
                shutil.copy(os.path.join(run_dir, w + ".spans.json"),
                            stem + ".spans.json")
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print("%s seed %d: correct=%s %s" % (
                w, seed, result["correct"],
                " ".join("%s=%.6g" % (k, m["value"])
                         for k, m in result["metrics"].items())), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print("%-16s %-12s median %-12.6g spread %6.2f%%  (bound/3 %5.2f%%)"
                  % (w, m["name"], med, (q[2] - q[0]) / med * 100,
                     m["bound"] / 3 * 100))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
