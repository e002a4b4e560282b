#!/usr/bin/env bash
# Build perf/main.exe from the source tree this script sits in, then
# measure one workload:
#
#   bash perf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result
# as one JSON object (see perf/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe workload "$@"
