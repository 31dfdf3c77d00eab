#!/usr/bin/env python3
"""Compare two quora-bench JSON reports and flag perf regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.25]
                     [--warn-only] [--require-same-mode]
                     [--fail-on-regression PCT]

For every case present in both reports, the primary metric is ns_per_op
(lower is better).  A case regresses when

    current.ns_per_op > baseline.ns_per_op * (1 + threshold)

Cases present in only one report are tolerated and reported as "added"
(current only — a new benchmark) or "removed" (baseline only — a retired
one); they never affect the exit status.

--fail-on-regression PCT is a hard gate: exit 1 when any case regresses
by more than PCT percent, even under --warn-only (the soft threshold
still prints its verdicts). Use it in CI lanes that want advisory
reporting at the default threshold but a firm ceiling against order-of-
magnitude cliffs.

Exit status: 0 when no case regresses (or --warn-only), 1 when at least
one does, 2 on usage or schema errors.

The reports come from `quora_bench --json`; see docs/PERFORMANCE.md.
"""

import argparse
import json
import sys

SCHEMA = "quora-bench/1"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if report.get("schema") != SCHEMA:
        print(
            f"bench_compare: {path}: expected schema {SCHEMA!r}, "
            f"got {report.get('schema')!r}",
            file=sys.stderr,
        )
        sys.exit(2)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed ns/op growth fraction before failing (default 0.25)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    parser.add_argument(
        "--require-same-mode",
        action="store_true",
        help="fail if the reports were produced in different modes "
        "(quick vs full numbers are not comparable)",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=float,
        metavar="PCT",
        default=None,
        help="hard gate: exit 1 when any case regresses by more than PCT "
        "percent, even under --warn-only",
    )
    args = parser.parse_args()
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")
    if args.fail_on_regression is not None and args.fail_on_regression < 0:
        parser.error("--fail-on-regression must be non-negative")

    base = load(args.baseline)
    cur = load(args.current)

    mode_note = ""
    if base.get("mode") != cur.get("mode"):
        msg = (
            f"modes differ (baseline={base.get('mode')}, "
            f"current={cur.get('mode')}): deltas are indicative only"
        )
        if args.require_same_mode:
            print(f"bench_compare: {msg}", file=sys.stderr)
            sys.exit(2)
        mode_note = f"  [note: {msg}]"

    base_cases = {c["name"]: c for c in base.get("cases", [])}
    cur_cases = {c["name"]: c for c in cur.get("cases", [])}

    regressions = []
    added = []
    removed = []
    width = max(
        (len(n) for n in set(base_cases) | set(cur_cases)), default=12
    )
    print(
        f"{'case':<{width}}  {'base ns/op':>12}  {'cur ns/op':>12}  "
        f"{'delta':>8}  verdict"
    )
    for name in sorted(set(base_cases) | set(cur_cases)):
        b, c = base_cases.get(name), cur_cases.get(name)
        if b is None:
            added.append(name)
            print(f"{name:<{width}}  {'-':>12}  "
                  f"{c['ns_per_op']:>12.2f}  {'-':>8}  added (current only)")
            continue
        if c is None:
            removed.append(name)
            print(f"{name:<{width}}  {b['ns_per_op']:>12.2f}  "
                  f"{'-':>12}  {'-':>8}  removed (baseline only)")
            continue
        b_ns, c_ns = b["ns_per_op"], c["ns_per_op"]
        delta = (c_ns - b_ns) / b_ns if b_ns > 0 else 0.0
        regressed = delta > args.threshold
        verdict = "REGRESSED" if regressed else ("improved" if delta < 0 else "ok")
        print(
            f"{name:<{width}}  {b_ns:>12.2f}  {c_ns:>12.2f}  "
            f"{delta:>+7.1%}  {verdict}"
        )
        if regressed:
            regressions.append((name, delta))

    if mode_note:
        print(mode_note)
    if added:
        print(f"bench_compare: added cases (no baseline): {', '.join(added)}")
    if removed:
        print(f"bench_compare: removed cases (baseline only): {', '.join(removed)}")

    hard_limit = (
        None
        if args.fail_on_regression is None
        else args.fail_on_regression / 100.0
    )
    hard_failures = [
        (n, d) for n, d in regressions if hard_limit is not None and d > hard_limit
    ]

    status = 0
    if regressions:
        names = ", ".join(f"{n} ({d:+.1%})" for n, d in regressions)
        print(f"bench_compare: regression beyond {args.threshold:.0%}: {names}")
        if not args.warn_only:
            status = 1
        else:
            print("bench_compare: --warn-only set, exiting 0")
    else:
        print(f"bench_compare: no case regressed beyond {args.threshold:.0%}")
    if hard_failures:
        names = ", ".join(f"{n} ({d:+.1%})" for n, d in hard_failures)
        print(
            f"bench_compare: hard gate --fail-on-regression "
            f"{args.fail_on_regression:g}% exceeded: {names}"
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
