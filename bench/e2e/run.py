#!/usr/bin/env python3
"""Builds cbe_e2e from this checkout and runs one benchmark workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e); the first run configures
and compiles, later runs only relink what changed.  With --trace 0 the last
line of standard output is a JSON object carrying every end_to_end metric of
BENCHMARK.json; with --trace 1 it carries every per_layer metric, from an
extra traced pass.  A layer that does no work on the workload reports 0.

Exits non-zero without printing a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170  # cbe_e2e itself; a run takes about run_seconds + 10 s
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", "bench/e2e", "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "cbe_e2e"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "e2e")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)

    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, "%s.json" % args.workload)
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(build_dir, "cbe_e2e"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--workdir=" + run_dir, "--json=" + out]
    if args.trace:
        cmd += ["--traced",
                "--spans=" + os.path.join(run_dir, args.workload + ".spans.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("cbe_e2e did not finish: %s" % e)
    # Exit status 1 means a correctness check failed; the result still
    # reports it (correct: false).  Anything else is a crash or usage error.
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        fail("cbe_e2e exited with status %d" % proc.returncode)
    with open(out) as f:
        doc = json.load(f)

    source = doc.get("layers", {}) if args.trace else doc["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if args.trace:
            value = source.get(name, 0.0)
        elif name in source:
            value = source[name]["value"]
        else:
            fail("cbe_e2e reported no %s" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print("run.py: %s seed %d ran %.1f s" %
          (args.workload, args.seed, time.monotonic() - start), file=sys.stderr)
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
