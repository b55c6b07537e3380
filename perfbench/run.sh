#!/usr/bin/env bash
# Builds the xmlac benchmark from source with dune and runs it; every
# argument is passed through:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# With --workload all it runs the four workloads one after another, each
# in its own process (so each reports its own peak heap), and prints
# each one's report and result object.
#
# Run from the root of a checkout.  The build goes to _build inside it
# (dune's shared cache is disabled, so nothing is written elsewhere).
# Without the repository's libraries next to it the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/xmlac_bench.exe 1>&2
exe=./_build/default/perfbench/xmlac_bench.exe
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [[ ${args[i]} == --workload && ${args[i + 1]} == all ]]; then
    for w in read_hot read_cold read_unannotated write_mix; do
      args[i + 1]=$w
      "$exe" "${args[@]}"
    done
    exit 0
  fi
done
exec "$exe" "$@"
