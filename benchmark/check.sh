#!/usr/bin/env bash
# Quick gate for the benchmark itself (a later PR can add one line to
# scripts/ci.sh): the unit tests, then every workload in --smoke mode
# (scale 0.005, 1.5 s per run, untraced and traced; ≈ 20 s in all once
# built). The smoke run exits non-zero when any operation failed
# (failed_pct > 0), when the emitted metric names differ from the names
# BENCHMARK.json declares — none missing, none extra — or when the
# per-layer probes no longer build what the service builds.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke "$@"
echo "benchmark check: ok"
