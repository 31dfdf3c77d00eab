#!/usr/bin/env python3
"""Compare a parent checkout with a change on one perfbench workload.

Usage:
    perfbench_pairs.py --parent DIR --change DIR --workload W --seeds LIST
                       [--save FILE]
    perfbench_pairs.py --summarize FILE

The first form runs `python3 perfbench/run.py --trace 0` once per seed in
each checkout for BENCHMARK.json's `run_seconds`, alternating which side
runs first (the parent first on the first seed), and prints the summary
below. Give both checkouts the same perfbench/ and BENCHMARK.json
(perfbench/README.md). `--save` appends every run's raw JSON line to
FILE, one record per line:

    {"workload": W, "seed": N, "pair": I, "side": "parent"|"change",
     "first": true|false, "result": <perfbench's JSON line>}

The second form prints the same summary from such a file, one block per
workload.

For each end-to-end metric of BENCHMARK.json the summary gives each
side's median and quartiles, in how many pairs the change was better (ties
count for neither side), the ratio of the medians (change / parent) and a
verdict:

  - "regressed": the change's median is worse than the parent's by more
    than the metric's bound;
  - "unresolved": the parent's quartile spread, as a fraction of its
    median, is wider than the bound, and not every change run beat every
    parent run;
  - "within bound" otherwise.

"gain" is appended where perfbench/README.md's rule for claiming one
holds: the change wins at least 9 in 10 pairs and the medians differ by
more than the parent's quartile spread. A last line compares `correct` and
`check_fail_frac` seed by seed.

Exit status: 0 after a summary (whatever it says), 2 on usage errors, a
failed run or an unreadable file. Standard library only; it reads
BENCHMARK.json beside this script's directory and writes nothing under
perfbench/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def fail(message):
    print(f"perfbench_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def better(a, b, direction):
    """True when value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, metric):
    """The summary row of one metric, from paired lists of values."""
    bound = metric["bound"]
    direction = metric["better"]
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    p_iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    worse_frac = worse / abs(p_med) if p_med else 0.0
    spread_frac = p_iqr / abs(p_med) if p_med else 0.0
    separated = all(better(c, p, direction) for c in change for p in parent)
    if worse_frac > bound:
        verdict = f"regressed ({worse_frac:+.3f} > bound {bound})"
    elif spread_frac > bound and not separated:
        verdict = f"unresolved (parent IQR {spread_frac:.3f} > bound {bound})"
    else:
        verdict = f"within bound {bound}"
    if wins * 10 >= 9 * len(parent) and -worse > p_iqr:
        verdict += "; gain"
    return {
        "parent": (p_med, quantile(parent, 0.25), quantile(parent, 0.75)),
        "change": (c_med, quantile(change, 0.25), quantile(change, 0.75)),
        "wins": wins,
        "pairs": len(parent),
        "ratio": c_med / p_med if p_med else float("nan"),
        "verdict": verdict,
    }


def checks_of(result):
    """A run's `correct` flag and its check_fail_frac."""
    attempted = result["attempted"]
    return (bool(result["correct"]),
            result["failed"] / attempted if attempted else 0.0)


def summarize(records, benchmark, out=sys.stdout):
    workloads = []
    for r in records:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    for workload in workloads:
        pairs = {}
        for r in records:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [pairs[i] for i in sorted(pairs) if len(pairs[i]) == 2]
        seeds = ",".join(str(p["parent"]["seed"]) for p in complete)
        print(f"workload {workload}: {len(complete)} pairs, seeds {seeds}",
              file=out)
        if not complete:
            continue
        print(f"  {'metric':<16}{'parent median [q1, q3]':<39}"
              f"{'change median [q1, q3]':<39}{'better':<8}{'ratio':<8}verdict",
              file=out)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {side: [p[side]["result"]["metrics"][name]["value"]
                             for p in complete] for side in SIDES}
            row = judge(values["parent"], values["change"], metric)
            cells = [f"{m:.6g} [{lo:.6g}, {hi:.6g}] {metric['unit']}"
                     for m, lo, hi in (row["parent"], row["change"])]
            print(f"  {name:<16}{cells[0]:<38} {cells[1]:<38} "
                  f"{row['wins']}/{row['pairs']:<6}{row['ratio']:<8.3f}"
                  f"{row['verdict']}", file=out)
        # A faster side repeats more often and so attempts more checks:
        # compare the failed fraction, not the counts.
        differ = [str(p["parent"]["seed"]) for p in complete
                  if checks_of(p["parent"]["result"]) !=
                  checks_of(p["change"]["result"])]
        correct = {side: sum(bool(p[side]["result"]["correct"]) for p in complete)
                   for side in SIDES}
        print(f"  correct: parent {correct['parent']}/{len(complete)}, "
              f"change {correct['change']}/{len(complete)}; "
              f"check_fail_frac differs on seeds: {','.join(differ) or 'none'}",
              file=out)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit status {proc.returncode}")
        return json.loads(lines[-1])
    except (ValueError, json.JSONDecodeError) as e:
        fail(f"{checkout}: {' '.join(cmd)}: {e}\n{proc.stderr[-2000:]}")


def parse_seeds(text):
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        fail(f"--seeds: expected comma-separated integers, got {text!r}")
    if not seeds:
        fail("--seeds: no seeds given")
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seeds")
    parser.add_argument("--save")
    parser.add_argument("--summarize", metavar="FILE")
    args = parser.parse_args()
    benchmark = load_benchmark()

    if args.summarize:
        try:
            with open(args.summarize, encoding="utf-8") as f:
                records = [json.loads(line) for line in f if line.strip()]
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read {args.summarize}: {e}")
        summarize(records, benchmark)
        return 0

    if not (args.parent and args.change and args.workload and args.seeds):
        parser.error("--parent, --change, --workload and --seeds are required "
                     "unless --summarize is given")
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    seeds = parse_seeds(args.seeds)
    seconds = benchmark["run_seconds"]

    checkouts = {"parent": args.parent, "change": args.change}
    records = []
    for pair, seed in enumerate(seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, seconds)
            record = {"workload": args.workload, "seed": seed, "pair": pair,
                      "side": side, "first": side == order[0],
                      "result": result}
            records.append(record)
            print(f"perfbench_pairs: pair {pair} seed {seed} {side}: "
                  f"{json.dumps(result)}", file=sys.stderr)
            if args.save:
                with open(args.save, "a", encoding="utf-8") as f:
                    f.write(json.dumps(record) + "\n")
    summarize(records, benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
