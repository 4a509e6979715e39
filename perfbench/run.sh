#!/usr/bin/env bash
# Builds the benchmark and the `aarc` daemon from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload search-fast --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); cargo's
# own progress goes to stderr, so stdout carries only the benchmark's
# digest line and, last, its JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p aarc-cli --bin aarc >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --aarc-bin "$CARGO_TARGET_DIR/release/aarc" "$@"
