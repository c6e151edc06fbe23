#!/usr/bin/env bash
# Byte-identity A/B of every experiment artefact: build a base revision
# and the current checkout in release mode, run the experiments and the
# examples of each into their own FPK_RESULTS_DIR, and `diff -r` the two
# trees. The examples' stdout is captured next to the JSON, with the
# results dir masked (they print no timings; the experiments do, so
# only their JSON is compared).
# Exits non-zero on any difference.
#
# The experiments are the names the current checkout's `fpk-exp list`
# prints. A side that has the `fpk-exp` binary runs `fpk-exp <name>`;
# an older base, built before it, has one binary per experiment and
# runs `<name>` instead. Either way the base must know every name.
#
# Each run's wall seconds go to times-base.tsv and times-head.tsv next
# to the two result trees (outside what is diffed), and a base/head
# table of them is printed at the end. One run per side: the times are
# indicative, not a benchmark.
#
# Usage: scripts/results_ab.sh <base-rev>
#
# The base revision is exported with `git archive` into a scratch
# directory and built with its own CARGO_TARGET_DIR, so the two builds
# never share artefacts; both are removed on exit, the result trees and
# time tables are kept (their paths are printed). The current checkout,
# uncommitted changes included, builds into its usual target directory.
# Expect one cold release build for the base plus two suite runs (about
# 2 min each on 2 cores). Set TMPDIR to choose where the scratch
# directory goes.

set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
head_dir="$PWD"
base_rev="$(git rev-parse --verify "$1^{commit}")"
work="$(mktemp -d)"
trap 'rm -rf "$work/src" "$work/target"' EXIT
mkdir "$work/src"
git archive "$base_rev" | tar -x -C "$work/src"

# since <start>: wall seconds elapsed since the `date +%s.%N` stamp <start>.
since() {
    awk -v a="$1" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }'
}

# The experiment names, from the current checkout's registry.
cargo build --release --quiet --offline -p fpk-bench --bin fpk-exp
experiments="$("${CARGO_TARGET_DIR:-$head_dir/target}/release/fpk-exp" list | awk '{ print $1 }')"

# run_side <checkout> <results dir> <times tsv>: build <checkout>, run
# each of $experiments and every example (CARGO_TARGET_DIR taken from
# the environment), appending each run's wall seconds to <times tsv>.
run_side() {
    local src="$1" out="$2" times="$3" target name f t0 exp
    mkdir -p "$out/examples"
    printf 'kind\tname\twall_s\n' > "$times"
    cd "$src"
    target="${CARGO_TARGET_DIR:-$src/target}"
    cargo build --release --quiet --offline -p fpk-bench --bins
    cargo build --release --quiet --offline -p fpk-repro --examples
    for name in $experiments; do
        if [ -x "$target/release/fpk-exp" ]; then
            exp=("$target/release/fpk-exp" "$name")
        else
            exp=("$target/release/$name")
        fi
        echo "  experiment $name"
        t0="$(date +%s.%N)"
        FPK_RESULTS_DIR="$out" "${exp[@]}" > /dev/null
        printf 'exp\t%s\t%s\n' "$name" "$(since "$t0")" >> "$times"
    done
    for f in examples/*.rs; do
        name="$(basename "$f" .rs)"
        echo "  example $name"
        t0="$(date +%s.%N)"
        # Artefact paths in the output name the results dir; mask it.
        FPK_RESULTS_DIR="$out" "$target/release/examples/$name" |
            sed "s|$out|<results>|g" > "$out/examples/$name.txt"
        printf 'example\t%s\t%s\n' "$name" "$(since "$t0")" >> "$times"
    done
}

echo "== base $base_rev"
(CARGO_TARGET_DIR="$work/target" run_side "$work/src" "$work/results-base" "$work/times-base.tsv")
echo "== head (current checkout)"
(run_side "$head_dir" "$work/results-head" "$work/times-head.tsv")

echo "== wall seconds, one run per side (indicative)"
awk -F'\t' '
    BEGIN { printf "%-8s %-30s %9s %9s %7s\n", "kind", "name", "base_s", "head_s", "head/base" }
    FNR == 1 { next }
    NR == FNR { base[$1 "\t" $2] = $3; next }
    {
        b = base[$1 "\t" $2]
        printf "%-8s %-30s %9.3f %9.3f %7s\n", $1, $2, b, $3, (b > 0 ? sprintf("%.2f", $3 / b) : "-")
        tb += b; th += $3
    }
    END { printf "%-8s %-30s %9.3f %9.3f %7s\n", "all", "", tb, th, (tb > 0 ? sprintf("%.2f", th / tb) : "-") }
' "$work/times-base.tsv" "$work/times-head.tsv"

if diff -r "$work/results-base" "$work/results-head"; then
    echo "results_ab: byte-identical ($work/results-base vs $work/results-head)"
else
    echo "results_ab: results differ ($work/results-base vs $work/results-head)" >&2
    exit 1
fi
