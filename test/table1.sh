#!/bin/sh
# Print the Table I fixture lines for a `genpec suite` directory:
#
#   sh test/table1.sh HQS_BIN SUITE_DIR
#
# One line per instance and node limit, `id limit exit maxsat-set=N
# peak-nodes=N`, from `hqs FILE -t 30 --node-limit LIMIT --stats`. The limits run
# 400000, 30000, 4000; the instances in id order within each. ci.sh
# diffs this output against test/fixtures/table1.expected; regenerate
# the fixture with the same command redirected into it.
set -eu
hqs=$1
dir=$2
for limit in 400000 30000 4000; do
  for f in "$dir"/*/*.dqdimacs; do
    echo "$(basename "$f" .dqdimacs) $f"
  done | sort | while read -r id f; do
    status=0
    out=$("$hqs" "$f" -t 30 --node-limit "$limit" --stats 2>&1) || status=$?
    ms=$(printf '%s\n' "$out" | tr ' ' '\n' | grep '^maxsat-set=' || true)
    pn=$(printf '%s\n' "$out" | tr ' ' '\n' | grep '^peak-nodes=' || true)
    echo "$id $limit $status $ms $pn"
  done
done
