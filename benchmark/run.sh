#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package from
# source (offline), then hands every argument to it:
#
#   benchmark/run.sh                                   every workload, untraced then traced
#   benchmark/run.sh --seed 2 --workload serve_read --sets 3
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (what the driver calls)
#
# Run from anywhere; paths are taken from this script's location. A
# relative CARGO_TARGET_DIR keeps its meaning because the directory is
# never changed.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: standard output belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/pygb-benchmark"
case "${1:-}" in
compare | manifest) exec "$bin" "$@" ;;
*) exec "$bin" "$@" --out-dir "$here/out" ;;
esac
