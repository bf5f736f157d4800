#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload olden|serve|profile --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr, so the last
# line on stdout is the JSON result.  See perfbench/README.md.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bench/baselines/BENCH_obs.json ]; then
  echo "perfbench: run from the repository root (dune-project or bench/baselines/BENCH_obs.json missing)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
