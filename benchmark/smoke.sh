#!/bin/sh
# Every workload once, timed and traced, at tiny scale for one second each:
# a smoke test of the harness, not a measurement.  Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --scale tiny --seconds 1 "$@" | tail -n 1
}
for workload in paper-report-1t paper-report-2t silent-study-1t snapshot-resolve-1t; do
    run --workload "$workload" --trace 0
    run --workload "$workload" --trace 1
done
