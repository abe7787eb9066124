#!/usr/bin/env python3
"""End-to-end benchmark of the TransER library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench, runs one workload in a
scratch directory under .bench_build/work, and prints as the last line of
standard output one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. The line before it holds the run's
deterministic counters. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

# The layers each workload exercises. A traced run must report every
# per-layer metric of these layers; metrics of layers the workload does
# not run are reported as 0 (no work done).
LAYERS = {
    "resolve_records": ("data.", "blocking.", "compare.", "knn.", "sel.",
                        "gen.", "tcl.", "eval.", "trace."),
    "transfer_features": ("data.", "knn.", "sel.", "gen.", "tcl.", "eval.",
                          "trace."),
    "serve_mixed": ("data.", "serve."),
    "ingest_stream": ("data.", "blocking.", "compare.", "ingest.", "trace."),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from the root of "
             "a checkout")
    for command in (
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(command))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    if args.workload not in LAYERS:
        fail("unknown workload " + args.workload)

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (args.workload, os.getpid()))
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result.returncode != 0:
        fail("workload exited with code %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name in raw["metrics"]:
            measured = raw["metrics"][name]
            if measured["unit"] != unit:
                fail("%s measured in %s, expected %s"
                     % (name, measured["unit"], unit))
            metrics[name] = {"value": measured["value"], "unit": unit}
        elif args.trace and not name.startswith(LAYERS[args.workload]):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail("workload %s did not report %s" % (args.workload, name))

    print("counters " + json.dumps(raw["counters"], sort_keys=True))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
