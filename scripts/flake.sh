#!/usr/bin/env bash
# Flake hunt: runs the workspace test suite <n> times, alternating
# `--test-threads=1` (odd runs) with the default thread count (even
# runs), then prints how many runs each test failed in. Exits non-zero
# if any run failed.
#
#   bash scripts/flake.sh 20
#
# In each failed run, a failing test is named by its `test <name> ...
# FAILED` line or by the `thread '<name>' panicked` line libtest prints
# for it (passing tests' panics are captured, so they never show). Each
# run's full output is kept in target/flake/run-<i>.log.
set -uo pipefail
cd "$(dirname "$0")/.."

n=${1:?usage: scripts/flake.sh <runs>}
logs=target/flake
mkdir -p "$logs"
rm -f "$logs"/run-*.log

failed=()
for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then
        mode="--test-threads=1"
        extra=(-- --test-threads=1)
    else
        mode="default threads"
        extra=()
    fi
    log="$logs/run-$i.log"
    start=$SECONDS
    # --no-fail-fast: a failure in one test binary must not hide the
    # binaries after it.
    if cargo test -q --offline --no-fail-fast "${extra[@]}" >"$log" 2>&1; then
        verdict=ok
    else
        verdict=FAILED
        failed+=("$i")
    fi
    passed=$(awk '/^test result:/ { p += $4 } END { print p + 0 }' "$log")
    echo "run $i/$n ($mode): $verdict, $passed passed, $((SECONDS - start)) s"
done

echo "per-test failures (runs failed, test):"
for i in "${failed[@]}"; do
    log="$logs/run-$i.log"
    names=$(
        sed -nE -e 's/^test (.+) \.\.\. FAILED$/\1/p' \
            -e "s/^thread '([^']+)'.* panicked at.*/\\1/p" "$log" |
            grep -vxE 'main|<unnamed>' | sort -u
    )
    echo "${names:-<run $i: no test named; see $log>}"
done | sort | uniq -c | sort -rn
echo "${#failed[@]} of $n runs failed"
((${#failed[@]} == 0))
