#!/bin/sh
# Print the inprocessing fixture lines for a directory of instances:
#
#   sh test/inproc.sh HQS_BIN DIR
#
# One line per `DIR/*/*.dqdimacs` instance, in id order: `id
# inproc-mode=.. inproc-rounds=.. ... preprocess.gates=N`, the
# `inproc-*` keys of `hqs FILE -t 30 --node-limit 400000 --stats
# --metrics` and the value of its `preprocess.gates` metric. ci.sh
# fills DIR with the `genpec suite` instances plus five front-end
# instances (`genpec one` lookahead 64/2/f, 64/1/f, 56/2/ok, 48/2/ok
# and bitcell 128/1/ok) and diffs this output against
# test/fixtures/inproc.expected; regenerate the fixture with the same
# command redirected into it.
set -eu
hqs=$1
dir=$2
for f in "$dir"/*/*.dqdimacs; do
  echo "$(basename "$f" .dqdimacs) $f"
done | sort | while read -r id f; do
  out=$("$hqs" "$f" -t 30 --node-limit 400000 --stats --metrics 2>&1) || true
  keys=$(printf '%s\n' "$out" | grep '^c peak-nodes=' | tr ' ' '\n' | grep '^inproc-' | tr '\n' ' ')
  gates=$(printf '%s\n' "$out" | sed -n 's/^c metric preprocess\.gates //p')
  echo "$id ${keys}preprocess.gates=${gates:-none}"
done
