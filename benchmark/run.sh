#!/usr/bin/env bash
# Build urbench from source and run it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--runs K]    every workload (urbench all)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh trace-summary W
#   benchmark/run.sh --smoke
#
# The build goes to $CARGO_TARGET_DIR, or to benchmark/target when that is
# unset. Only cargo writes to standard error and only on failure, so the
# last line of standard output is urbench's result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/urbench"

mode=all
for arg in "$@"; do
    case "$arg" in
        --workload | --smoke | trace-summary | all) mode= ;;
    esac
done
exec "$bin" $mode "$@"
