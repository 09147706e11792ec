#!/usr/bin/env bash
# Runs every workload once, one process each, and prints its metrics.
#
#   benchmark/run.sh [--seed N] [--seconds N] [--trace 0|1]
#
# Extra arguments go to the benchmark binary unchanged. The exit code is
# non-zero if any workload reports a failed operation.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
status=0
for workload in study_mid study_hostile collect_centi service_evict analyze_mid; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" "$@" || status=1
done
exit "$status"
