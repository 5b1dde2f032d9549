#!/usr/bin/env bash
# Builds the release `diffcond` server and the benchmark binary from this
# checkout, then runs one workload:
#
#   bash servebench/run.sh --workload hot-implies --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build).  With two or more CPUs and `taskset` available, the
# server and the load generator each run pinned to one of the first two CPUs
# this process may use; right before the measured window the benchmark
# times a fixed computation on both and puts the server on the faster one.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/engine || ! -f servebench/Cargo.toml ]]; then
    echo "servebench: run from the repository root (no engine sources here)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p diffcon-engine --bin diffcond >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2

# The first two CPUs this process may run on (none when that cannot be told).
read -r -a cpus <<< "$(python3 -c 'import os; print(*sorted(os.sched_getaffinity(0)))' 2>/dev/null || true)"
pin=()
server_cpu=()
if command -v taskset >/dev/null 2>&1 && [[ ${#cpus[@]} -ge 2 ]]; then
    pin=(taskset -c "${cpus[1]}")
    server_cpu=(--server-cpu "${cpus[0]}" --generator-cpu "${cpus[1]}")
fi

exec ${pin[@]+"${pin[@]}"} "$target/release/servebench" \
    --server "$target/release/diffcond" \
    --out "$target/servebench" \
    ${server_cpu[@]+"${server_cpu[@]}"} \
    "$@"
