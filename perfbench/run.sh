#!/bin/sh
# Build the server and the benchmark from this checkout, then run one
# workload:  sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -e
if [ ! -f dune-project ] || [ ! -f bin/xsact_serve.ml ] || [ ! -f perfbench/dune-project ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
# keep every build output inside the checkout
DUNE_CACHE=disabled dune build --root . ./bin/xsact_serve.exe ./perfbench/bin/main.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
