#!/usr/bin/env bash
# Reproduce every experiment in DESIGN.md §3 and collect the outputs.
#
#   scripts/reproduce.sh            # reduced scale (~1 minute)
#   scripts/reproduce.sh --paper    # the paper's exact protocol
#
# Results land in reproduce-out/: one .txt per experiment plus a combined
# report. Build first: cmake -B build -G Ninja && cmake --build build

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--help" || "${1:-}" == "-h" ]]; then
  cat <<'USAGE'
usage: scripts/reproduce.sh [--paper] [BENCH_ARGS...]

Runs every experiment in DESIGN.md §3 and collects the outputs in
reproduce-out/. With no arguments a reduced-scale configuration runs in
about a minute; --paper restores the paper's exact measurement protocol.
Any extra arguments are forwarded verbatim to each bench binary except
the exact analytic sweeps tab_ahamad_ammar and tab_vote_assignment,
which take none.

Build first (CMakePresets.json defines the presets):
  cmake --preset release && cmake --build --preset release

To reproduce under sanitizers (contracts + ASan/UBSan active, slower):
  cmake --preset asan-ubsan && cmake --build --preset asan-ubsan
  BENCH_DIR=build/asan-ubsan/bench scripts/reproduce.sh

Validate configuration files without running anything:
  ./build/release/tools/quora_check examples/configs/*.quora

See docs/STATIC_ANALYSIS.md for the sanitizer presets, the contract
macro policy, and the quora-check audit reference.
USAGE
  exit 0
fi

SCALE_ARGS=("$@")
BENCH_DIR=${BENCH_DIR:-build/bench}
if [[ ! -d "$BENCH_DIR" ]]; then
  if [[ -d build/release/bench ]]; then
    BENCH_DIR=build/release/bench
  else
    cat >&2 <<'HINT'
reproduce.sh: no bench binaries found (looked in $BENCH_DIR, build/bench,
build/release/bench). Build the release preset first:

  cmake --preset release && cmake --build --preset release

or point BENCH_DIR at an existing build, e.g.:

  BENCH_DIR=build/asan-ubsan/bench scripts/reproduce.sh
HINT
    exit 2
  fi
fi
OUT_DIR=reproduce-out
mkdir -p "$OUT_DIR"

FIGURES=(fig2_topology0 fig3_topology1 fig4_topology2 fig5_topology4
         fig6_topology16 fig7_topology256 fig7x_topology4949)
TABLES=(tab_endpoints tab_read_write_ratio tab_write_constraint
        tab_analytic_validation tab_surv_metric tab_batch_diagnostics
        tab_multi_object tab_witnesses tab_access_skew tab_message_level)
# Exact analytic sweeps: they take no scale arguments and reject any.
SWEEPS=(tab_ahamad_ammar tab_vote_assignment)
ABLATIONS=(abl_estimator abl_optimizer abl_dynamic_qr abl_graduation
           abl_sensitivity abl_access_duration abl_protocol_survey)

run() {
  local name=$1; shift
  echo "== $name $*"
  "$BENCH_DIR/$name" "$@" | tee "$OUT_DIR/$name.txt"
  echo
}

: > "$OUT_DIR/report.txt"
{
  echo "quora reproduction run: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "scale: ${SCALE_ARGS[*]:-default (reduced)}"
  echo
} | tee -a "$OUT_DIR/report.txt"

for b in "${FIGURES[@]}" "${TABLES[@]}" "${ABLATIONS[@]}"; do
  run "$b" "${SCALE_ARGS[@]}" | tee -a "$OUT_DIR/report.txt"
done
for b in "${SWEEPS[@]}"; do
  run "$b" | tee -a "$OUT_DIR/report.txt"
done

echo "== quora_bench --quick (pinned perf cases, CI-sized)"
"$BENCH_DIR/../tools/quora_bench" --quick \
  | tee "$OUT_DIR/quora_bench.txt" | tee -a "$OUT_DIR/report.txt"

echo
echo "all outputs in $OUT_DIR/ — compare against EXPERIMENTS.md"
