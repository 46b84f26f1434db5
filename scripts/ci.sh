#!/usr/bin/env bash
# Hermetic CI gate. The whole pipeline must run with ZERO network access:
# the workspace has no external dependencies (see DESIGN.md §7), so
# --offline is not an optimization here — it is the policy, enforced.
# Adding a crates.io dependency will fail this script at resolution time.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --offline (tier-1)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo build --release --offline -p qp-exec --no-default-features (obs compiled out)"
cargo build --release --offline -p qp-exec --no-default-features

echo "==> cargo clippy --offline -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo test -q --offline (tier-1)"
cargo test -q --offline --workspace

echo "==> bench smoke (no --bench flag: compile + skip)"
cargo test -q --offline -p qp-bench --benches

echo "==> parallel equivalence suite (rows/counters/total(Q) byte-identical to serial)"
cargo test -q --offline --test parallel_equivalence

echo "==> parallel_speedup smoke (equivalence at degrees 1/2/4; report-only, not a perf gate)"
cargo test -q --offline -p qp-bench --bench parallel_speedup

echo "==> parallel-gate (measured speedups, two regimes: paged-disk >= 2.0x at 4 workers, cpu-bound"
echo "    >= 1.0x at degrees 2/4 when the runner has at least 4 cores; exits non-zero on violation)"
cargo bench --offline -q -p qp-bench --bench parallel_speedup

echo "==> observability overhead gate (counters AND default-on spans must stay within budget of bare)"
# Full measurement: exits non-zero if the untimed counters OR the
# default-on span path cost more than QP_OBS_BUDGET_PCT (default 5 %)
# vs a bare run, and refreshes BENCH_overhead.json — the repo's
# performance trajectory. Opt-in histogram timing is reported, not gated.
cargo bench --offline -q -p qp-bench --bench obs_overhead

echo "==> audit smoke (AUDIT-over-TCP vs offline TRACE re-score; byte-identical across 3 seeds;"
echo "    repro self-gates and exits non-zero on any mismatch)"
audit_out=$(cargo run --release --offline -q -p qp-bench --bin repro -- --small audit)
grep -q "PASS: live postmortems reproduce offline" <<<"$audit_out"

echo "==> qp-service smoke (server + client example end to end)"
cargo run --release --offline -q --example service_progress | grep -q "server stopped cleanly"

echo "==> crash-recovery matrix (every WAL CrashPoint x 3 seeds; recovery must be byte-identical)"
cargo test -q --offline -p qp-storage --test crash_recovery

echo "==> pagecache smoke (disk-bound estimator regime; repro self-gates and exits non-zero)"
pagecache_out=$(cargo run --release --offline -q -p qp-bench --bin repro -- --small pagecache)
grep -q "PASS: hit rate falls" <<<"$pagecache_out"

echo "==> chaos stage (seeded fault injection; repro exits non-zero on any violation)"
for seed in 1 2 3; do
    # Capture rather than pipe into grep -q: early grep exit + pipefail
    # would turn repro's own trailing output into a spurious SIGPIPE fail.
    chaos_out=$(cargo run --release --offline -q -p qp-bench --bin repro -- --small chaos --seed "$seed")
    grep -q "PASS: all sessions terminal" <<<"$chaos_out"
done

echo "==> ensemble-gate (hostile-scenario matrix; ensemble must win/tie a majority, stay within"
echo "    safe's worst case, and fall back byte-identically to safe; exits non-zero on violation)"
for seed in 1 3; do
    ensemble_out=$(cargo run --release --offline -q -p qp-bench --bin repro -- --small ensemble --seed "$seed")
    grep -q "PASS: ensemble wins or ties" <<<"$ensemble_out"
done

echo "==> reactor contract (poll(2) timeout/waker/writable/EOF-vs-hup; an idle server makes no wakeups;"
echo "    shutdown and SHUTDOWN need no timer)"
cargo test -q --offline -p qp-service --test reactor

echo "==> load-smoke (event-loop front end under hundreds of concurrent sessions; zero protocol"
echo "    errors, idle STATUS p50 and busy STATUS p99 within twice the worst measured run, bounded"
echo "    queue latency; repro self-gates and exits non-zero on violation)"
load_out=$(cargo run --release --offline -q -p qp-bench --bin repro -- --small load)
grep -q "PASS: .* connections served with zero protocol errors" <<<"$load_out"
grep -q "gate: idle STATUS p50 .* at 256 connections: ok" <<<"$load_out"
grep -q "gate: busy STATUS p99 .* at 256 connections: ok" <<<"$load_out"

echo "==> BENCH_service.json gate (the load run must have recorded a passing verdict)"
grep -q '"gate":"pass"' BENCH_service.json

echo "==> benchmark check (benchmark/ compiles against the public API; every workload in --smoke mode)"
bash benchmark/check.sh

echo "CI OK"
