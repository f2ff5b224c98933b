#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 ucbench/run.py --workload paper-batch --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The program is built with CMake into
$CARGO_TARGET_DIR/ucbench (default .bench_build/ucbench); build output goes
to stderr. The program's report is echoed, and the last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
A traced run also writes its spans to <build>/trace/<workload>-seed<N>.csv.

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-batch", "paper-random", "store-async", "store-sync")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "ucbench")


def build(out):
    """Configures once and builds; returns the program's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "atom.hpp")):
        sys.exit("ucbench: no library sources under %s" % os.path.join(ROOT, "src"))
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                sys.exit("ucbench: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "ucbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--warmup", type=float,
                    help="warm-up before the window (default 2 s)")
    ap.add_argument("--threads", type=int, choices=(1, 2, 3, 4),
                    help="paper-* client threads (default 4)")
    ap.add_argument("--inject",
                    choices=("flip-result", "probe-flip", "probe-value",
                             "probe-band", "size-off-by-one", "drop-record",
                             "bad-invariants", "band-write"),
                    help="negative control: corrupt one checked output")
    ap.add_argument("--reference", action="store_true",
                    help="print the Seq / UC@1 / UC@4 table on the paper inputs")
    a = ap.parse_args()
    if not a.reference and a.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    prog = build(out)
    cmd = [prog, "--seed", str(a.seed), "--seconds", repr(a.seconds)]
    if a.warmup is not None:
        cmd += ["--warmup", repr(a.warmup)]
    if a.reference:
        sys.exit(subprocess.call(cmd + ["--reference"]))
    cmd += ["--workload", a.workload, "--trace", str(a.trace)]
    if a.threads:
        cmd += ["--threads", str(a.threads)]
    if a.inject:
        cmd += ["--inject", a.inject]
    if a.trace:
        os.makedirs(os.path.join(out, "trace"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out, "trace", "%s-seed%d.csv" % (a.workload, a.seed))]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("ucbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("ucbench: program exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        sys.exit("ucbench: last line is not a result object")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
