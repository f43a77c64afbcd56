#!/usr/bin/env bash
# Builds the measured programs and the benchmark from source, then runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target/), shared by the
# programs' workspace and the benchmark's own.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet -p pipedepth-experiments -p pipedepth-serve --bins >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
