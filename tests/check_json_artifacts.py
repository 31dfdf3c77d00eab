#!/usr/bin/env python3
"""Every JSON artifact the command-line tools write must load as JSON.

Runs, and loads each output with json.loads:

  - quora_check --json and --sarif FILE over every file under
    examples/{configs,chaos,model,data}. Files under a broken/ directory
    must be rejected (exit 1); every other file must pass (exit 0).
  - the same two outputs for a generated .quora file whose third line
    holds a 0x01 byte inside a directive name, so the error message
    quotes a control character;
  - quora_chaos --sweep --seeds 1 --report FILE on geo_region_outage.chaos
    and --race --seeds 1 --report FILE on adaptive_drift_race.chaos;
  - quora_lint --all-scopes --json=FILE --sarif FILE over the lint
    fixtures;
  - quora_bench --quick --json FILE with a --rev label that holds a
    quote and a 0x01 byte.

ctest runs this as check-json-artifacts (see tests/CMakeLists.txt).
Standalone, from any directory:

  python3 tests/check_json_artifacts.py SOURCE_DIR QUORA_CHECK QUORA_CHAOS \
      QUORA_LINT QUORA_BENCH
"""

import json
import os
import subprocess
import sys
import tempfile

EXAMPLE_DIRS = ("configs", "chaos", "model", "data")


def run(cmd, cwd, expect):
    """Runs `cmd`; returns its stdout, or None after reporting a bad exit."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          errors="surrogateescape", check=False)
    if proc.returncode not in expect:
        print(f"FAIL exit {proc.returncode} (want {sorted(expect)}): "
              f"{' '.join(cmd)}\n{proc.stderr}", file=sys.stderr)
        return None
    return proc.stdout


def loads(text, what):
    """True if `text` is valid JSON; reports the parse error otherwise."""
    try:
        json.loads(text)
        return True
    except ValueError as err:
        print(f"FAIL invalid JSON in {what}: {err}", file=sys.stderr)
        return False


def load_file(path, what):
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        return loads(f.read(), what)


def check_config(quora_check, source, path, expect, scratch):
    """quora_check --json (stdout) and --sarif FILE for one input."""
    sarif = os.path.join(scratch, "check.sarif")
    out = run([quora_check, "--json", "--sarif", sarif, path], source, expect)
    if out is None:
        return False
    json_ok = loads(out, f"quora_check --json {path}")
    sarif_ok = load_file(sarif, f"quora_check --sarif {path}")
    return json_ok and sarif_ok


def main(argv):
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    source, quora_check, quora_chaos, quora_lint, quora_bench = argv[1:]
    failures = 0
    checked = 0
    with tempfile.TemporaryDirectory() as scratch:
        inputs = []
        for sub in EXAMPLE_DIRS:
            root = os.path.join("examples", sub)
            for dirpath, _, names in os.walk(os.path.join(source, root)):
                rel = os.path.relpath(dirpath, source)
                inputs += [os.path.join(rel, n) for n in names]
        for path in sorted(inputs):
            broken = "broken" in path.split(os.sep)
            expect = {1} if broken else {0}
            failures += not check_config(quora_check, source, path, expect,
                                         scratch)
            checked += 1

        control = os.path.join(scratch, "control_char.quora")
        with open(control, "wb") as f:
            f.write(b"sites 3\ncomplete\nbo\x01gus 1\n")
        failures += not check_config(quora_check, source, control, {1},
                                     scratch)
        checked += 1

        chaos_runs = (("--sweep", "geo_region_outage.chaos"),
                      ("--race", "adaptive_drift_race.chaos"))
        for mode, plan in chaos_runs:
            report = os.path.join(scratch, "chaos_report.json")
            cmd = [quora_chaos, mode, "--seeds", "1", "--report", report,
                   os.path.join("examples", "chaos", plan)]
            if run(cmd, source, {0}) is None:
                failures += 1
            else:
                failures += not load_file(report, f"quora_chaos {mode} {plan}")
            checked += 1

        # The fixtures carry findings and a deliberately malformed
        # suppression, so the run exits 1 or 2; it still writes both files.
        lint_json = os.path.join(scratch, "lint.json")
        lint_sarif = os.path.join(scratch, "lint.sarif")
        cmd = [quora_lint, "--all-scopes", "--quiet", f"--json={lint_json}",
               "--sarif", lint_sarif, os.path.join("tests", "lint", "fixtures")]
        if run(cmd, source, {1, 2}) is None:
            failures += 1
        else:
            failures += not load_file(lint_json, "quora_lint --json")
            failures += not load_file(lint_sarif, "quora_lint --sarif")
        checked += 1

        bench_json = os.path.join(scratch, "bench.json")
        cmd = [quora_bench, "--quick", "--rev", 'x"y\x01z', "--json",
               bench_json]
        if run(cmd, source, {0}) is None:
            failures += 1
        else:
            failures += not load_file(bench_json, "quora_bench --json")
        checked += 1

    print(f"check_json_artifacts: {checked} runs, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
