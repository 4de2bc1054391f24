#!/bin/sh
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository:
#
#   sh benchsuite/run.sh --workload install --seed 1 --seconds 20 --trace 0
#
# The arguments go to suite.exe unchanged; see benchsuite/README.md.
set -e
if [ ! -f dune-project ] || [ ! -d lib/llee ] || [ ! -d benchsuite ]; then
  echo "run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# build output goes to stderr: stdout ends with the result line
dune build --root . --cache=disabled ./benchsuite/suite.exe 1>&2
exec ./_build/default/benchsuite/suite.exe "$@"
