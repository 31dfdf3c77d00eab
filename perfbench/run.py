#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt) and the quora_chaos tool from the
checkout's own sources into .bench_build/perfbench; later runs only
re-check the build. The binary runs the workload for about S seconds and
checks its outputs; for cluster_chaos this script then replays every
plan under quora_chaos with the same seed and horizon and compares the
event-log hashes. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
`--tiny` shrinks every workload to self-test size (perfbench/selftest.py).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

WORKLOADS = ("paper_curves", "cluster_steady", "cluster_chaos", "model_explore")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}; run from a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs(), "--target", "perfbench", "quora_chaos"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")


def chaos_hash(line):
    """Replays one cross-check line under quora_chaos; returns (ok, note)."""
    path, seed, horizon, adapt, expected = line.split()
    cmd = [str(BUILD / "quora_chaos"), "--seed", seed, "--horizon", horizon]
    if adapt == "1":
        cmd.append("--adapt")
    cmd.append(path)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"quora_chaos timed out on {path}"
    found = re.search(r"hash=([0-9a-f]+)", proc.stdout)
    if proc.returncode != 0 or found is None:
        return False, f"quora_chaos failed on {path} (exit {proc.returncode})"
    if int(found.group(1), 16) != int(expected, 16):
        return False, (f"{Path(path).name} seed {seed}: benchmark log hash {expected}, "
                       f"quora_chaos {found.group(1)}")
    return True, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    build()
    spans = BUILD / "traces"
    spans.mkdir(exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--root", str(ROOT), "--spans-dir", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{args.workload} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    crosschecks = [line[len("crosscheck "):] for line in lines if line.startswith("crosscheck ")]
    with ThreadPoolExecutor(max_workers=int(jobs())) as pool:
        verdicts = list(pool.map(chaos_hash, crosschecks))
    for ok, note in verdicts:
        if not ok:
            print(f"check-failed {note}")

    attempted = result["checks"] + len(verdicts)
    failed = result["check_failures"] + sum(1 for ok, _ in verdicts if not ok)
    print(f"metric check_fail_frac {failed / attempted if attempted else 0.0!r} frac "
          f"({failed} of {attempted} checks)")
    metrics = result["per_layer"] if args.trace == "1" else result["end_to_end"]
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
