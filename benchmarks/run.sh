#!/usr/bin/env bash
# The perf ledger's one command. Builds the benchmark package in release
# mode (offline; into $CARGO_TARGET_DIR, default ./target) and runs it.
#
#   benchmarks/run.sh [--seed N] [--workload NAME] [--seconds S] [--out FILE]
#       every workload (or the one named), timed then traced, each run in
#       its own child process; prints every metric by name with its unit,
#       writes one results JSON (default benchmarks/results/results-seed<N>.json)
#       and exits non-zero if any check failed.
#   benchmarks/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object.
#   benchmarks/run.sh --compare A.json[,A2.json,...] B.json[,B2.json,...]
#       two sets of results files, one file per run; per metric, one
#       workload per row: both medians, the relative difference, each
#       set's run-to-run spread, the bound, ok / regressed / unresolved;
#       exit 1 on regressed.
#   benchmarks/run.sh --check
#       fmt --check, clippy -D warnings and the package's tests
#       (scripts/check.sh does not reach this package).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=benchmarks/Cargo.toml

if [ "${1:-}" = "--check" ]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest" -q
    exit 0
fi

cargo build --release --offline --quiet --manifest-path "$manifest"
exec "$CARGO_TARGET_DIR/release/stayaway-benchmarks" "$@"
