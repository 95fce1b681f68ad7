#!/usr/bin/env bash
# Builds the benchmark, runs the five workloads untraced and traced, and
# merges the ten result files into one.
#
#   benchmark/run.sh [--seed N] [--quick] [--out PATH]
#
# --quick runs 2 rounds per workload, back to back: a smoke test that
# every leg, the oracle and the writers work, not a measurement. (`compare`
# refuses to set it against a full run: not the same work.) Compare two merged
# files with:
#   cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
seed=1
rounds=()
out="$here/out/results.json"
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift ;;
        --quick) rounds=(--rounds 2 --seconds 1) ;;
        --out) out="$2"; shift ;;
        *) echo "usage: $0 [--seed N] [--quick] [--out PATH]" >&2; exit 2 ;;
    esac
    shift
done

bench=(cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" --)
cargo build --release --offline --manifest-path "$here/Cargo.toml"

files=()
for workload in steady_loops steady_branchy cold_fleet snapshot_fleet phase_flip; do
    for trace in 0 1; do
        file="$here/out/$workload.$trace.json"
        "${bench[@]}" --workload "$workload" --seed "$seed" --trace "$trace" \
            ${rounds[@]+"${rounds[@]}"} --out "$file" | sed '$d'
        files+=("$file")
    done
done
"${bench[@]}" merge "$out" "${files[@]}"
echo "merged: $out"
