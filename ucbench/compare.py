#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them against BENCHMARK.json.

    python3 ucbench/compare.py collect --out base.jsonl --runs 10 [--workload W ...]
    python3 ucbench/compare.py check base.jsonl [new.jsonl]

`collect` runs ucbench/run.py once per seed (1..runs, or --first-seed on)
for each workload and appends one JSON line per run: workload, seed and the
run's result object.

`check` reads one or two such files. For each workload and end-to-end
metric it prints the median and the spread, the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. With one file it fails when a spread other than setup_s exceeds
the metric's bound. With two it also fails when the second median is worse
than the first by more than the bound, or when the share of failed
operations differs between the two sets. Exit status 1 on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(a):
    s = spec()
    workloads = a.workload or [w["name"] for w in s["workloads"]]
    with open(a.out, "a") as out:
        for w in workloads:
            for seed in range(a.first_seed, a.first_seed + a.runs):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(s["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      cwd=ROOT)
                if proc.returncode != 0:
                    sys.exit("run failed: %s" % " ".join(cmd))
                result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(w, seed, json.dumps(result["metrics"]), flush=True)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def summarize(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def failed_share(results):
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results))


def check(a):
    s = spec()
    sets = [load(p) for p in a.files]
    ok = True
    for w in [w["name"] for w in s["workloads"]]:
        if all(w not in runs for runs in sets):
            continue
        if any(w not in runs for runs in sets):
            print("%s: missing from a set" % w)
            ok = False
            continue
        for runs in sets:
            if not all(r["correct"] for r in runs[w]):
                print("%s: a run reported incorrect outputs" % w)
                ok = False
        for m in s["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            for runs in sets:
                med, spread = summarize(runs[w], name)
                cells.append((med, spread))
                if name != "setup_s" and spread > bound:
                    ok = False
            line = "%-13s %-12s bound %.2f" % (w, name, bound)
            for med, spread in cells:
                line += " | median %14.4f spread %.4f%s" % (
                    med, spread, " OVER" if name != "setup_s" and spread > bound
                    else (" (>1/3)" if spread > bound / 3 else ""))
            if len(cells) == 2:
                base, new = cells[0][0], cells[1][0]
                worse = (new - base) / base if m["better"] == "lower" \
                    else (base - new) / base
                line += " | worse by %+.4f%s" % (
                    worse, " REGRESSION" if worse > bound else "")
                ok = ok and worse <= bound
            print(line)
        if len(sets) == 2:
            f0, a0 = failed_share(sets[0][w])
            f1, a1 = failed_share(sets[1][w])
            # Exact comparison of the two shares, as fractions.
            if f0 * a1 != f1 * a0:
                print("%s: failed share differs: %d/%d vs %d/%d"
                      % (w, f0, a0, f1, a1))
                ok = False
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workload", action="append")
    k = sub.add_parser("check")
    k.add_argument("files", nargs="+")
    a = ap.parse_args()
    if a.cmd == "collect":
        collect(a)
        return 0
    if len(a.files) > 2:
        ap.error("check takes one or two files")
    return check(a)


if __name__ == "__main__":
    sys.exit(main())
