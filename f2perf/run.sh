#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the
# repository root:
#
#   bash f2perf/run.sh --workload paper_suite --seed 1 --seconds 35 --trace 0
#
# The campaign engine logs two lines per sweep to stderr, hundreds of
# kilobytes per run; only the last 200 lines of the benchmark's stderr are
# passed on. Standard output and the exit status are the benchmark's own.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path f2perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-f2perf/target}/release/f2perf"
{ "$bin" "$@" 2>&1 1>&3 3>&- | tail -n 200 1>&2; } 3>&1
