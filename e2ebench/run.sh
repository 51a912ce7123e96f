#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and
# runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON
# result. Build files and generated inputs live under
# ${CARGO_TARGET_DIR:-.bench_build}/e2ebench, so a runner that points
# CARGO_TARGET_DIR at its build-output directory collects them there.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}/e2ebench"
cmake -S e2ebench -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_bench -j 4 >&2
exec "$build/e2e_bench" --workdir "$build/work" "$@"
