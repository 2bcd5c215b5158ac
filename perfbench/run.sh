#!/usr/bin/env bash
# Build and run forkroad's host benchmark. From the repository root:
#
#   bash perfbench/run.sh --workload fork-cow --seed 1 --seconds 10 --trace 0
#
# Workloads: fork-cow, demand-warm, serve-parked. --trace 0 prints the
# end-to-end metrics, --trace 1 the per-layer ones; the last line of
# stdout is one JSON object. Build output goes to stderr, and the build
# stays inside the checkout (_build/, no shared dune cache).
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
