#!/usr/bin/env bash
# The repo benchmark: builds the benchmark package in release mode and runs it.
#
#   benchmark/run.sh                      every workload, every metric, every check
#   benchmark/run.sh --check              smoke: end-to-end pass only, 2 repeats
#   benchmark/run.sh --workload NAME      one workload (add --trace 1 for the per-layer pass)
#   benchmark/run.sh --seed N --out FILE  another seed; also write the report as JSON
#
# With --workload the last line of standard output is the JSON result the
# benchmark driver reads. See benchmark/README.md.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$bench_dir/.."

# Cargo resolves a relative CARGO_TARGET_DIR against the working directory,
# which is the repository root here; without one, build inside benchmark/.
target_dir="${CARGO_TARGET_DIR:-$bench_dir/target}"
CARGO_TARGET_DIR="$target_dir" cargo build --release --offline --quiet \
    --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target_dir/release/skiptrain-benchmark" --bench-dir "$bench_dir" "$@"
