#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--workload W] [--runs K] [--smoke]
#       every workload, untraced (end-to-end) then traced (per-layer);
#       prints every metric with unit and sample count, checks outputs,
#       exits non-zero if any operation failed.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object.
#   benchmark/run.sh compare <a.json> <b.json>
#
# Results, traces and the paged database's temp dir all live under
# $CARGO_TARGET_DIR/qp-benchmark (default: target/qp-benchmark).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/qp-benchmark" --out "$target/qp-benchmark" "$@"
