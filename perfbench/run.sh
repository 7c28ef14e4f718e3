#!/usr/bin/env bash
# Build the HQS binaries and the benchmark driver from source, then run
# the benchmark. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the driver's
# JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an HQS checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

dune build --root . ./perfbench/main.exe ./bin/hqs_cli.exe ./bin/certcheck.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
