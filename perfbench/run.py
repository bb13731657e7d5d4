#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a checkout that holds src/ and perfbench/.  The
first run configures and builds the library and the perfbench binary under
.bench_build/ (CMake, Release); later runs only rebuild what changed.  The
last line of stdout is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  The full report, with the environment block, and the
spans of traced runs are written under .bench_build/reports/.

Exit codes: 0 ok, 1 an output check failed or the build failed, 2 usage
error, 3 runtime error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
WORKLOADS = ("fabric", "mesh", "resync", "serve")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Build and run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; held-out seed 977)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources at {os.path.join(ROOT, 'src')}; "
            "run from a full checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    result = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr)
    return result.returncode == 0


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = parse_args(argv)
    if not build():
        log("build failed")
        return 1
    os.makedirs(REPORTS, exist_ok=True)
    stem = os.path.join(
        REPORTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--report", stem + ".json",
               "--source-id", source_id()]
    if args.trace:
        command += ["--spans", stem + ".spans.json"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        log(f"perfbench exited {run.returncode} without a result")
        return run.returncode or 3
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        log(f"metrics {names} do not match BENCHMARK.json")
        return 1
    for line in lines[:-1]:
        print(line)
    log(f"report: {os.path.relpath(stem + '.json', ROOT)}")
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
