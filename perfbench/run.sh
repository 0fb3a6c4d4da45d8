#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload sweep_large --seed 3 --seconds 20 --trace 0
# Build output goes to stderr, so the benchmark's own stdout ends with its
# JSON result line.  The dune cache is disabled so nothing is written
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
