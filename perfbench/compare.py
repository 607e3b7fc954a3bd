#!/usr/bin/env python3
"""Records sets of benchmark runs and compares two of them.

Record a set (one run per workload and seed, stdout kept per run):

    python3 perfbench/compare.py record runs/a --seeds 1-10

Summarise one set, or compare two:

    python3 perfbench/compare.py diff runs/a            # medians, quartiles, spreads
    python3 perfbench/compare.py diff runs/a runs/b     # ... and the verdict

For every workload and end-to-end metric `diff` prints the median, the first
and third quartiles (statistics.quantiles(n=4)) and the spread (quartile
distance over the median) of each set. With two sets it fails (exit 1) when
a work fingerprint of the same workload and seed differs, when the share of
failed operations differs, when a run was not correct, or when a metric's
median got worse than BENCHMARK.json's bound allows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args, spec):
    os.makedirs(args.out, exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in parse_seeds(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            name = "%s-%d.log" % (workload, seed)
            with open(os.path.join(args.out, name), "w") as f:
                f.write(done.stdout)
            lines = done.stdout.strip().splitlines()
            print("%s seed %d exit %d %s" % (workload, seed, done.returncode,
                                             lines[-1][:100] if lines else ""))
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-2000:])


def load_set(directory):
    """workload -> seed -> (result dict, fingerprint dict)."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".log"):
            continue
        workload, _, seed = name[:-4].rpartition("-")
        with open(os.path.join(directory, name)) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        fingerprint = None
        for line in lines:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
        runs.setdefault(workload, {})[int(seed)] = (result, fingerprint)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def diff(args, spec):
    sets = [load_set(d) for d in args.sets]
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        per_set = [s.get(workload, {}) for s in sets]
        if not all(per_set):
            print("%s: no runs in %s" % (workload, " / ".join(
                d for d, s in zip(args.sets, per_set) if not s)))
            ok = False
            continue
        print("== %s (%s runs)" % (workload, " / ".join(
            str(len(s)) for s in per_set)))
        shares = []
        for runs in per_set:
            attempted = sum(r["attempted"] for r, _ in runs.values())
            failed = sum(r["failed"] for r, _ in runs.values())
            shares.append((failed, attempted))
            for seed, (result, _) in sorted(runs.items()):
                if not result["correct"]:
                    print("  seed %d: run not correct" % seed)
                    ok = False
        print("  failed/attempted: %s" % "  ".join(
            "%d/%d" % s for s in shares))
        if len(per_set) == 2:
            (f0, a0), (f1, a1) = shares
            if f0 * a1 != f1 * a0:
                print("  FAIL: the share of failed operations differs")
                ok = False
            for seed in sorted(set(per_set[0]) & set(per_set[1])):
                if per_set[0][seed][1] != per_set[1][seed][1]:
                    print("  FAIL: fingerprint of seed %d differs: %s vs %s" % (
                        seed, per_set[0][seed][1], per_set[1][seed][1]))
                    ok = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            medians = []
            for runs in per_set:
                values = [r["metrics"][name]["value"] for r, _ in runs.values()]
                q1, q2, q3 = quartiles(values)
                medians.append(q2)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                cells.append("median %.6g [q1 %.6g q3 %.6g] spread %.3f" % (
                    q2, q1, q3, spread))
                if spread > metric["bound"]:
                    cells[-1] += " (WIDER THAN BOUND %.2f)" % metric["bound"]
            line = "  %-16s %s" % (name, " | ".join(cells))
            if len(medians) == 2 and medians[0]:
                change = medians[1] / medians[0] - 1.0
                worse = change if metric["better"] == "lower" else -change
                line += " | change %+.3f" % change
                if worse > metric["bound"]:
                    line += " FAIL (bound %.2f)" % metric["bound"]
                    ok = False
            print(line)
    if len(sets) == 2:
        print("verdict: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record", help="run every workload for each seed")
    rec.add_argument("out")
    rec.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    dif = sub.add_parser("diff", help="summarise one set or compare two")
    dif.add_argument("sets", nargs="+", metavar="DIR")
    args = parser.parse_args()
    spec = load_spec()
    if args.action == "record":
        record(args, spec)
        return 0
    if len(args.sets) > 2:
        parser.error("diff takes one or two directories")
    return diff(args, spec)


if __name__ == "__main__":
    sys.exit(main())
