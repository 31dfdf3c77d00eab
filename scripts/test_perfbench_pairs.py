#!/usr/bin/env python3
"""Tests for perfbench_pairs.py on synthetic perfbench lines: the summary's
medians, quartiles, pair wins, ratios and verdicts, and the run mode's
alternation against stand-in checkouts whose perfbench/run.py prints a
fixed line (ctest runs this via the perfbench-pairs-py test; see
tests/CMakeLists.txt).

Standalone:  python3 scripts/test_perfbench_pairs.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "perfbench_pairs.py")

spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as f:
    BENCHMARK = json.load(f)
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def result(work, setup=0.05, cpu=0.2, rss=15.0, correct=True, failed=0,
           attempted=100):
    values = {"setup_s": setup, "cpu_s": cpu, "work_per_cpu_s": work,
              "peak_rss_mb": rss}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": "x"}
                        for name in METRICS}}


def records(parent_work, change_work, workload="cluster_steady", **change):
    out = []
    for i, (p, c) in enumerate(zip(parent_work, change_work)):
        out.append({"workload": workload, "seed": i + 1, "pair": i,
                    "side": "parent", "first": i % 2 == 0,
                    "result": result(p)})
        out.append({"workload": workload, "seed": i + 1, "pair": i,
                    "side": "change", "first": i % 2 == 1,
                    "result": result(c, **change)})
    return out


def row(summary, metric):
    for line in summary.splitlines():
        if line.strip().startswith(metric + " "):
            return line
    raise AssertionError(f"no {metric} row in:\n{summary}")


class QuantileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(pairs.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(pairs.quantile([1, 2, 3, 4, 5], 0.25), 2.0)
        self.assertEqual(pairs.quantile([7], 0.75), 7)


class SummarizeTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def summarize(self, recs):
        path = os.path.join(self._dir.name, "pairs.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for r in recs:
                f.write(json.dumps(r) + "\n")
        proc = subprocess.run([sys.executable, SCRIPT, "--summarize", path],
                              capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_clear_gain(self):
        parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
        change = [180, 182, 178, 181, 179, 180, 183, 177, 180, 99]
        out = self.summarize(records(parent, change))
        self.assertIn("workload cluster_steady: 10 pairs", out)
        line = row(out, "work_per_cpu_s")
        self.assertIn("9/10", line)
        self.assertIn("100 [99.25, 101]", line)
        self.assertIn("1.800", line)
        self.assertIn("within bound 0.25; gain", line)
        # Equal values everywhere: no wins, ratio 1, no gain.
        line = row(out, "setup_s")
        self.assertIn("0/10", line)
        self.assertIn("1.000", line)
        self.assertNotIn("gain", line)
        self.assertIn("correct: parent 10/10, change 10/10", out)
        self.assertIn("differs on seeds: none", out)

    def test_eight_wins_in_ten_is_no_gain(self):
        parent = [100] * 10
        change = [150] * 8 + [90, 90]
        line = row(self.summarize(records(parent, change)), "work_per_cpu_s")
        self.assertIn("8/10", line)
        self.assertNotIn("gain", line)

    def test_regression_beyond_the_bound(self):
        parent = [100] * 6
        change = [70] * 6  # 30% less work per CPU-second, bound 0.25
        line = row(self.summarize(records(parent, change)), "work_per_cpu_s")
        self.assertIn("regressed (+0.300 > bound 0.25)", line)

    def test_lower_is_better_metric_regresses_upward(self):
        recs = records([100] * 4, [100] * 4, rss=20.0)  # +33% RSS, bound 0.15
        line = row(self.summarize(recs), "peak_rss_mb")
        self.assertIn("regressed", line)

    def test_wide_parent_spread_is_unresolved(self):
        parent = [50, 100, 150, 200, 100, 100]
        change = [90, 95, 140, 190, 95, 105]
        line = row(self.summarize(records(parent, change)), "work_per_cpu_s")
        self.assertIn("unresolved (parent IQR", line)

    def test_separated_runs_resolve_a_wide_spread(self):
        parent = [50, 100, 150, 200]
        change = [300, 310, 320, 330]
        line = row(self.summarize(records(parent, change)), "work_per_cpu_s")
        self.assertIn("within bound", line)
        self.assertIn("gain", line)

    def test_reports_seeds_whose_checks_differ(self):
        out = self.summarize(records([100] * 3, [100] * 3, failed=2))
        self.assertIn("differs on seeds: 1,2,3", out)

    def test_more_checks_at_the_same_fraction_do_not_differ(self):
        # The faster side runs more repetitions, so it attempts more checks.
        out = self.summarize(records([100] * 3, [180] * 3, attempted=190))
        self.assertIn("differs on seeds: none", out)

    def test_one_block_per_workload(self):
        out = self.summarize(records([100] * 2, [100] * 2) +
                             records([5] * 3, [5] * 3, workload="model_explore"))
        self.assertIn("workload cluster_steady: 2 pairs", out)
        self.assertIn("workload model_explore: 3 pairs", out)

    def test_unreadable_file_exits_2(self):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--summarize",
             os.path.join(self._dir.name, "missing.jsonl")],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)


FAKE_RUN = """\
import json, os, sys
args = sys.argv[1:]
seed = int(args[args.index("--seed") + 1])
side = os.path.basename(os.getcwd())
with open(os.environ["PAIRS_LOG"], "a") as f:
    f.write(f"{side} {seed} {' '.join(args)}\\n")
work = {"parent": 100.0, "change": 180.0}[side] + seed
print("metric work_per_cpu_s", work, "1/s")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    name: {"value": work if name == "work_per_cpu_s" else 1.0, "unit": "x"}
    for name in %r}}))
"""


class RunModeTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        for side in ("parent", "change"):
            os.makedirs(os.path.join(self._dir.name, side, "perfbench"))
            with open(os.path.join(self._dir.name, side, "perfbench", "run.py"),
                      "w", encoding="utf-8") as f:
                f.write(FAKE_RUN % (METRICS,))

    def test_alternates_sides_and_saves_raw_lines(self):
        log = os.path.join(self._dir.name, "calls.log")
        saved = os.path.join(self._dir.name, "saved.jsonl")
        proc = subprocess.run(
            [sys.executable, SCRIPT,
             "--parent", os.path.join(self._dir.name, "parent"),
             "--change", os.path.join(self._dir.name, "change"),
             "--workload", "cluster_steady", "--seeds", "3,4,5",
             "--save", saved],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PAIRS_LOG": log})
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(log, encoding="utf-8") as f:
            calls = [line.split()[:2] for line in f]
        self.assertEqual(calls, [["parent", "3"], ["change", "3"],
                                 ["change", "4"], ["parent", "4"],
                                 ["parent", "5"], ["change", "5"]])
        with open(log, encoding="utf-8") as f:
            self.assertIn(f"--seconds {BENCHMARK['run_seconds']} --trace 0",
                          f.readline())
        with open(saved, encoding="utf-8") as f:
            recs = [json.loads(line) for line in f]
        self.assertEqual(len(recs), 6)
        self.assertEqual(recs[2]["side"], "change")
        self.assertTrue(recs[2]["first"])
        self.assertEqual(recs[2]["result"]["metrics"]["work_per_cpu_s"]["value"],
                         184.0)
        self.assertIn("workload cluster_steady: 3 pairs, seeds 3,4,5",
                      proc.stdout)
        self.assertIn("3/3", row(proc.stdout, "work_per_cpu_s"))

    def test_failed_run_exits_2(self):
        with open(os.path.join(self._dir.name, "change", "perfbench", "run.py"),
                  "w", encoding="utf-8") as f:
            f.write("import sys\nsys.exit(1)\n")
        proc = subprocess.run(
            [sys.executable, SCRIPT,
             "--parent", os.path.join(self._dir.name, "parent"),
             "--change", os.path.join(self._dir.name, "change"),
             "--workload", "cluster_steady", "--seeds", "1"],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PAIRS_LOG": os.path.join(self._dir.name, "l")})
        self.assertEqual(proc.returncode, 2)

    def test_unknown_workload_exits_2(self):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--parent", ".", "--change", ".",
             "--workload", "nope", "--seeds", "1"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
