#!/usr/bin/env bash
# The repository's benchmark, in one command, from anywhere:
#
#     bash benchmark/run.sh [--seed N] [--workload NAME] [--seconds S]
#
# builds the harness in release, runs every workload untraced (end-to-end
# metrics) and then traced (per-layer metrics), prints one
# `workload metric unit value` line per number, checks outputs, and writes
# benchmark/out/results.json and benchmark/out/trace-<workload>.json.
#
# With `--trace 0|1` it is the driver's single run of one workload in one
# mode (BENCHMARK.json `command`): the last line of standard output is the
# result object.
#
# Other entry points, after a build:
#     tssa-benchmark compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

# The root workspace's target directory unless the caller chose one: the
# crates under test are the same packages there, so their builds are shared.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

mode=suite
for arg in "$@"; do
  if [ "$arg" = "--trace" ]; then mode=run; fi
done
exec "$CARGO_TARGET_DIR/release/tssa-benchmark" "$mode" "$@"
