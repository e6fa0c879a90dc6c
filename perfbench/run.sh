#!/usr/bin/env bash
# Build the harness and the mpsgen daemon from this checkout, then run
# one workload.  Run from the repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload walk-shm --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/harness.exe ./bin/mpsgen.exe 1>&2
exec ./_build/default/perfbench/harness.exe "$@"
