#!/usr/bin/env python3
"""Build and run the C4CAM benchmark on one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
benchmark/ -- which pulls in the library from this checkout's sources --
into $CARGO_TARGET_DIR (default .bench_build); later runs reuse that
build. c4cam_bench's output passes through, and the last line printed is
one JSON object {"correct", "attempted", "failed", "metrics"} whose
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). A traced run also checks its trace document
with c4cam-trace-check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the two binaries up to date."""
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "benchmark", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "c4cam_bench", "c4cam-trace-check"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    command = [os.path.join(build_dir, "c4cam_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds)]
    trace_file = os.path.join(build_dir, f"trace-{args.workload}.json")
    if args.trace:
        command += ["--trace", trace_file]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"c4cam_bench exited {run.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"c4cam_bench exited {run.returncode} without a result")

    if args.trace:
        check = subprocess.run(
            [os.path.join(build_dir, "c4cam", "tools", "c4cam-trace-check"),
             trace_file], stdout=sys.stderr)
        if check.returncode != 0:
            fail("the trace document does not pass c4cam-trace-check")

    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name = entry["name"]
        if name not in result["metrics"]:
            fail(f"c4cam_bench did not report {name}")
        metrics[name] = result["metrics"][name]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
