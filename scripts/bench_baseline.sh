#!/usr/bin/env bash
# Run the seven criterion benches in quick mode and merge their results
# into one machine-readable baseline, BENCH_baseline.json.
# `scenario_grid` times the fpk-scenarios sweep runner at three grid
# sizes sharing one short-run base workload at 5 replications per cell
# (small/medium/large — a 6-cell table grid, a 24-cell table grid, a
# 1000-cell stress slice): `serial/<size>` is the streaming executor at
# width 1 (the calling thread runs every cell), `parallel/<size>` is
# the same executor striping cells over scoped worker threads at
# machine width. The parallel row must beat serial at every size —
# that ratio is the regression this bench exists to catch; the group
# overrides the quick-mode sample cap because the margin is a few
# percent. `event_queue` pits the hand-rolled indexed event heap
# against a reference BinaryHeap, and churns it at the population a DES
# sweep keeps (`des_population`). `artifact` writes and reloads a
# ~1 MB sweep report shaped like perfbench's `flow_churn` artifact.
#
# Quick mode (FPK_BENCH_QUICK=1, honoured by the vendored criterion —
# see DESIGN.md §Vendoring) cuts per-sample time and sample counts hard:
# the numbers are coarse but stable enough to flag order-of-magnitude
# regressions, and the whole sweep finishes in a few minutes. For careful
# timing run `cargo bench -p fpk-bench` without the env var.
#
# Usage: ./scripts/bench_baseline.sh [output.json]

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_baseline.json}"
lines="$(mktemp)"
trap 'rm -f "$lines"' EXIT

for bench in numerics fp_solver fluid_and_dde simulator event_queue scenario_grid artifact; do
    echo "== bench: $bench =="
    FPK_BENCH_QUICK=1 FPK_BENCH_JSON="$lines" \
        cargo bench -q -p fpk-bench --bench "$bench"
done

# Merge the JSON Lines into a single JSON document:
# {"generated_by": ..., "results": [ {...}, ... ]}
{
    printf '{\n  "generated_by": "scripts/bench_baseline.sh (FPK_BENCH_QUICK=1)",\n'
    printf '  "rustc": "%s",\n' "$(rustc --version)"
    printf '  "results": [\n'
    sed 's/^/    /; $!s/$/,/' "$lines"
    printf '  ]\n}\n'
} > "$out"

count="$(wc -l < "$lines")"
echo "wrote $out ($count benchmarks)"
