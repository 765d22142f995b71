#!/bin/sh
# Build the suite from source, then run one workload; from the root of a
# checkout:
#   sh bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the result object stays the last line
# of stdout. The build stays inside the checkout (dune's shared cache is
# off). The library's tuning variables are cleared so that every run
# measures the code's own defaults. See bench/suite/README.md.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/suite/run.exe 1>&2
unset QUIPPER_DOMAINS QUIPPER_PAR_THRESHOLD QUIPPER_ENGINE
exec ./_build/default/bench/suite/run.exe "$@"
