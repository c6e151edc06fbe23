#!/usr/bin/env bash
# Byte-identity A/B of every experiment artefact: build a base revision
# and the current checkout in release mode, run the experiment bins and
# the examples of each into their own FPK_RESULTS_DIR, and `diff -r`
# the two trees. The examples' stdout is captured next to the JSON, with
# the results dir masked (they print no timings; the bins do, so only
# their JSON is compared).
# Exits non-zero on any difference.
#
# Usage: scripts/results_ab.sh <base-rev>
#
# The base revision is checked out in a temporary `git worktree` and
# built with its own CARGO_TARGET_DIR, so the two builds never share
# artefacts; both are removed on exit, the two result trees are kept
# (their paths are printed). The current checkout, uncommitted changes
# included, builds into its usual target directory. Expect one cold
# release build for the base plus two suite runs (about 2 min each on 2
# cores). Set TMPDIR to choose where the scratch directory goes.

set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
head_dir="$PWD"
base_rev="$(git rev-parse --verify "$1^{commit}")"
work="$(mktemp -d)"
cleanup() {
    git -C "$head_dir" worktree remove --force "$work/src" 2>/dev/null || true
    git -C "$head_dir" worktree prune
    rm -rf "$work/src" "$work/target"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/src" "$base_rev"

# run_side <checkout> <results dir>: build and run every bin and example
# of <checkout> (CARGO_TARGET_DIR taken from the environment).
run_side() {
    local src="$1" out="$2" target name f
    mkdir -p "$out/examples"
    cd "$src"
    target="${CARGO_TARGET_DIR:-$src/target}"
    cargo build --release --quiet --offline -p fpk-bench --bins
    cargo build --release --quiet --offline -p fpk-repro --examples
    for f in crates/bench/src/bin/*.rs; do
        name="$(basename "$f" .rs)"
        echo "  bin $name"
        FPK_RESULTS_DIR="$out" "$target/release/$name" > /dev/null
    done
    for f in examples/*.rs; do
        name="$(basename "$f" .rs)"
        echo "  example $name"
        # Artefact paths in the output name the results dir; mask it.
        FPK_RESULTS_DIR="$out" "$target/release/examples/$name" |
            sed "s|$out|<results>|g" > "$out/examples/$name.txt"
    done
}

echo "== base $base_rev"
(CARGO_TARGET_DIR="$work/target" run_side "$work/src" "$work/results-base")
echo "== head (current checkout)"
(run_side "$head_dir" "$work/results-head")

if diff -r "$work/results-base" "$work/results-head"; then
    echo "results_ab: byte-identical ($work/results-base vs $work/results-head)"
else
    echo "results_ab: results differ ($work/results-base vs $work/results-head)" >&2
    exit 1
fi
