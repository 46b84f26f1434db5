#!/usr/bin/env bash
# A/B run of the benchmark: the working tree against a base revision.
#
#   scripts/ab.sh <base-rev> <workload> [pairs=10] [first-seed=100]
#
# Exports <base-rev> into a temporary directory (`git archive`, so an
# interrupted run leaves nothing registered in the repository), builds
# benchmark/ for both trees into separate target directories, then runs
# `pairs` pairs of untraced (`--trace 0`) runs, pair i on seed
# first-seed+i, alternating which side runs first. Prints every
# end-to-end metric of BENCHMARK.json per pair, then per metric both
# medians, the base's inter-quartile range and how many pairs the change
# won. Exits non-zero if any run failed an operation or could not be
# carried out. The temporary tree is removed on exit; set TMPDIR to
# choose where it goes.
set -euo pipefail
if [ $# -lt 2 ]; then
    sed -n '2,15p' "$0" >&2
    exit 64
fi
base_rev=$1
workload=$2
pairs=${3:-10}
first_seed=${4:-100}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/qp-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/base"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base_rev^{commit}")" |
    tar -x -C "$work/base"
base_target="$work/target"
head_target="${CARGO_TARGET_DIR:-$root/target}"
case "$head_target" in /*) ;; *) head_target="$root/$head_target" ;; esac

for side in base head; do
    if [ "$side" = base ]; then tree="$work/base" tgt="$base_target"; else tree="$root" tgt="$head_target"; fi
    echo "==> building benchmark/ of $side" >&2
    CARGO_TARGET_DIR="$tgt" cargo build --release --offline --quiet \
        --manifest-path "$tree/benchmark/Cargo.toml" >&2
done

# One run: <side> <seed>. Appends the result object to $work/<side>-<seed>.json.
run_one() {
    local side=$1 seed=$2 tree tgt status=0
    if [ "$side" = base ]; then tree="$work/base" tgt="$base_target"; else tree="$root" tgt="$head_target"; fi
    (cd "$tree" && CARGO_TARGET_DIR="$tgt" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --trace 0) \
        >"$work/$side-$seed.out" 2>"$work/$side-$seed.err" || status=$?
    tail -n 1 "$work/$side-$seed.out" >"$work/$side-$seed.json"
    echo "$side seed $seed: exit $status" >&2
    echo "$status" >"$work/$side-$seed.status"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do run_one "$side" "$seed"; done
done

python3 - "$root/BENCHMARK.json" "$work" "$pairs" "$first_seed" <<'EOF'
import json, statistics, sys
spec, work, pairs, first = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
metrics = json.load(open(spec))["end_to_end"]
failed = 0

def load(side, seed):
    global failed
    status = int(open(f"{work}/{side}-{seed}.status").read())
    try:
        result = json.loads(open(f"{work}/{side}-{seed}.json").read())
    except ValueError:
        result = {"failed": None, "metrics": {}}
    if status != 0 or result.get("failed") != 0:
        failed += 1
        print(f"# {side} seed {seed}: exit {status}, failed={result.get('failed')}")
    return {k: v["value"] for k, v in result["metrics"].items()}

runs = [(first + i, load("base", first + i), load("head", first + i)) for i in range(pairs)]
print("seed\tmetric\tbase\tchange\tdelta")
for seed, base, head in runs:
    for m in metrics:
        b, h = base.get(m["name"]), head.get(m["name"])
        if b is None or h is None:
            print(f"{seed}\t{m['name']}\t{b}\t{h}\t-")
        else:
            delta = f"{(h - b) / b:+.1%}" if b else "-"
            print(f"{seed}\t{m['name']}\t{b:.6g}\t{h:.6g}\t{delta}")

def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

print()
print("metric\tbase_median\tchange_median\tdelta\tbase_iqr\tchange_wins")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    both = [(b[name], h[name]) for _, b, h in runs if name in b and name in h]
    if not both:
        print(f"{name}\t-\t-\t-\t-\t0/0")
        continue
    bs, hs = [b for b, _ in both], [h for _, h in both]
    wins = sum((h < b) if lower else (h > b) for b, h in both)
    bm, hm = statistics.median(bs), statistics.median(hs)
    q1, q3 = quartiles(bs)
    delta = f"{(hm - bm) / bm:+.1%}" if bm else "-"
    print(f"{name}\t{bm:.6g}\t{hm:.6g}\t{delta}\t{q3 - q1:.6g}\t{wins}/{len(both)}")
sys.exit(1 if failed else 0)
EOF
