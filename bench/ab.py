#!/usr/bin/env python3
"""Interleaved A/B of two commits on learnbench workloads.

Checks out BASE and CHANGE as temporary git worktrees, runs

    python3 learnbench/run.py --workload W --seed S --trace T

in each, PAIRS times at run.py's own run length (the benchmark's),
alternating which side runs first, and prints each metric's median,
quartiles and the number of pairs CHANGE won (the better direction
comes from BENCHMARK.json). Each side first builds learnbench in a 1 s
warm-up run that is not counted. --workload, --seed and --trace may
repeat; every combination gets its own PAIRS. The worktrees are
removed afterwards. Run it from the repository root:

    python3 bench/ab.py --base HEAD~1 --change HEAD --workload pao_bigdb \\
        --seed 1 --seed 7 --pairs 10 --out bench/trajectory/results.json

--out keeps one entry per (workload, seed, trace), so several runs can
share one file; an existing entry for the same key is replaced.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_side(tree, workload, seed, trace, warmup=False):
    """One run.py run in `tree` at the benchmark's length (1 s for the
    warm-up); its result object, or None on no result."""
    cmd = [sys.executable, "learnbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if warmup:
        cmd += ["--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("error: run.py in %s printed no result (exit %d)"
            % (tree, proc.returncode))
        return None
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better):
    summary = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        entry = {"unit": pairs[0]["base"]["metrics"][name]["unit"]}
        for side, values in (("base", base), ("change", change)):
            q1, median, q3 = quartiles(values)
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            entry["better"] = better[name]
            entry["wins"] = sum(1 for b, c in zip(base, change)
                                if sign * (c - b) > 0)
        summary[name] = entry
    return summary


def print_summary(summary, pairs):
    print("%-28s %-38s %-38s %s" % ("metric", "base q1 / median / q3",
                                    "change q1 / median / q3", "wins"))
    for name, e in summary.items():
        cells = ["%.4g / %.4g / %.4g"
                 % (e[side]["q1"], e[side]["median"], e[side]["q3"])
                 for side in ("base", "change")]
        wins = "%d/%d" % (e["wins"], pairs) if "wins" in e else "-"
        print("%-28s %-38s %-38s %s" % (name, cells[0], cells[1], wins))


def run_pairs(trees, workload, seed, trace, args):
    pairs = []
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], workload, seed, trace)
            if pair[side] is None:
                return None
        log("%s seed %d trace %d: pair %d/%d (%s first) done"
            % (workload, seed, trace, i + 1, args.pairs, order[0]))
        pairs.append(pair)
    return pairs


def report(workload, seed, trace, pairs, revs, args, better):
    summary = summarize(pairs, better)
    print("\n%s seed %d trace %d: %d pairs, base %s, change %s"
          % (workload, seed, trace, len(pairs), revs["base"][:10],
             revs["change"][:10]))
    for side in revs:
        bad = [p[side] for p in pairs
               if p[side]["exit"] != 0 or not p[side]["correct"]
               or p[side]["failed"] > 0]
        print("%s: %d of %d runs incorrect or with failed queries"
              % (side, len(bad), len(pairs)))
    print_summary(summary, len(pairs))
    if args.out:
        results = {}
        if os.path.isfile(args.out):
            with open(args.out) as f:
                results = json.load(f)
        key = "%s/seed%d/trace%d" % (workload, seed, trace)
        results[key] = {"base": revs["base"], "change": revs["change"],
                        "pairs": pairs, "summary": summary}
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--trace", type=int, choices=[0, 1], action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    revs = {"base": git("rev-parse", args.base),
            "change": git("rev-parse", args.change)}
    workdir = tempfile.mkdtemp(prefix="ab-")
    trees = {side: os.path.join(workdir, side) for side in revs}
    try:
        for side, rev in revs.items():
            git("worktree", "add", "--detach", trees[side], rev)
            # The first run in a tree builds learnbench; keep it out of
            # the pairs.
            log("%s: building and warming up" % side)
            run_side(trees[side], args.workload[0], 1, 0, warmup=True)
        for workload in args.workload:
            for seed in args.seed or [1]:
                for trace in args.trace or [0]:
                    pairs = run_pairs(trees, workload, seed, trace, args)
                    if not pairs:
                        return 1
                    report(workload, seed, trace, pairs, revs, args, better)
    finally:
        for side in trees:
            if os.path.isdir(trees[side]):
                git("worktree", "remove", "--force", trees[side])
        git("worktree", "prune")
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
