#!/usr/bin/env python3
"""Negative controls for the benchmark's checks.

    python3 ucbench/selftest.py

Each control corrupts one checked output (--inject), never the library,
and expects exactly the check it aims at to report it:

- a flipped update result, and on store-* a flipped own-partition probe,
  a wrong value read and a band key read as present, must each count as
  exactly one failed operation, with every final check passing;
- an off-by-one expected size, a dropped record entry, a malformed treap
  and a write into the never-written band (counted as expected by the size
  and membership checks) must each set correct to false with exactly one
  `CHECK FAILED:` line, the one that names that check.

A clean run must pass every check. Last, a copy of the benchmark in a
directory without the library sources must exit non-zero, print no result
and not hang. Exit status 1 if any control is not caught as expected.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build-directory rule lives there)

SHORT = ["--seconds", "1", "--warmup", "0.2", "--seed", "7", "--trace", "0"]
PAPER, STORE = "paper-random", "store-sync"


def one_failed_op(r, problems):
    return r["correct"] and r["failed"] == 1 and not problems


def only_check(prefix):
    """correct is false through exactly one check, the one named."""
    return lambda r, problems: (not r["correct"] and r["failed"] == 0 and
                                len(problems) == 1 and
                                problems[0].startswith(prefix))


# inject mode -> (workloads, what the result and CHECK FAILED lines must show)
CONTROLS = {
    None: ((PAPER, STORE),
           lambda r, problems: r["correct"] and r["failed"] == 0 and not problems),
    "flip-result": ((PAPER, STORE), one_failed_op),
    "probe-flip": ((STORE,), one_failed_op),
    "probe-value": ((STORE,), one_failed_op),
    "probe-band": ((STORE,), one_failed_op),
    "size-off-by-one": ((PAPER, STORE), only_check("size ")),
    "drop-record": ((PAPER, STORE), only_check("final membership differs")),
    "bad-invariants": ((PAPER, STORE),
                       only_check("treap invariants violated (injected")),
    "band-write": ((PAPER, STORE), only_check("never-written band key present")),
}


def result_of(args):
    """The run's result object and its CHECK FAILED messages, or None."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        return None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    problems = [l.split("CHECK FAILED: ", 1)[1] for l in lines
                if "CHECK FAILED: " in l]
    return json.loads(lines[-1]), problems


def main():
    ok = True
    for inject, (workloads, expect) in CONTROLS.items():
        for workload in workloads:
            args = ["--workload", workload] + SHORT
            if inject:
                args += ["--inject", inject]
            r, problems = result_of(args)
            caught = r is not None and expect(r, problems)
            ok = ok and caught
            print("%-13s %-16s %s" % (
                workload, inject or "(clean)",
                "ok" if caught else "NOT CAUGHT: %s %s" % (r, problems)))

    # A checkout holding only BENCHMARK.json and the benchmark directory.
    bare = os.path.join(run.build_dir(), "selftest-nosrc")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "ucbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    try:
        proc = subprocess.run(
            [sys.executable, "ucbench/run.py", "--workload", "paper-batch"]
            + SHORT, cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180)
        caught = proc.returncode != 0 and '"correct"' not in proc.stdout
    except subprocess.TimeoutExpired:
        caught = False
    shutil.rmtree(bare, ignore_errors=True)
    ok = ok and caught
    print("%-30s %s" % ("checkout without src/", "ok" if caught else "NOT CAUGHT"))
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
