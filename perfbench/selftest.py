#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at --tiny size.

    python3 perfbench/selftest.py

For each workload, two seeds, untraced and traced, it asserts that the
result line has exactly the contract's keys, that every check passed, that
every metric BENCHMARK.json declares is emitted with its unit (and nothing
else), and that another seed changes the inputs but not the metric set.
Finally it copies BENCHMARK.json and perfbench/ into an otherwise empty
directory and asserts the benchmark refuses to run there. Exit status 0
when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print(f"FAIL {what}")

    for workload in (w["name"] for w in spec["workloads"]):
        inputs = {}
        for seed in SEEDS:
            for trace in (0, 1):
                tag = f"{workload} seed={seed} trace={trace}"
                proc = run(workload, seed, trace)
                lines = proc.stdout.splitlines()
                expect(proc.returncode == 0 and lines, f"{tag}: exit {proc.returncode}")
                if proc.returncode != 0 or not lines:
                    print(proc.stderr[-2000:])
                    continue
                result = json.loads(lines[-1])
                expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                       f"{tag}: result keys {sorted(result)}")
                expect(result["correct"] is True and result["failed"] == 0
                       and result["attempted"] >= 1,
                       f"{tag}: checks {result['failed']} failed of {result['attempted']}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == declared[trace], f"{tag}: metrics/units differ from "
                       f"BENCHMARK.json: {sorted(set(got) ^ set(declared[trace]))}")
                expect(all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values()), f"{tag}: non-numeric value")
                for line in lines:
                    if line.startswith("inputs "):
                        inputs.setdefault(seed, set()).add(line.split()[1])
                    if line.startswith("check-failed"):
                        print(f"  {tag}: {line}")
        expect(all(len(v) == 1 for v in inputs.values()) and len(inputs) == len(SEEDS),
               f"{workload}: traced and untraced runs of one seed saw different inputs")
        expect(len(set().union(*inputs.values())) == len(SEEDS),
               f"{workload}: seeds {SEEDS} generated identical inputs")
        print(f"ok {workload}" if not any(p.startswith(workload) for p in problems)
              else f"FAILED {workload}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("paper_curves", 1, 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
