#!/bin/sh
# CI entry point: run from the repo root.
#
#   ./ci.sh
#
# Steps:
#   1. full build
#   2. format check (skipped with a notice if ocamlformat is absent)
#   3. static analysis (bin/lint: catch-alls, polymorphic compare,
#      Obj.magic, failwith in lib/, missing .mli, raw fds outside
#      lib/exec, wall-clock reads outside lib/util) plus the lint
#      driver's usage-error contract (nonexistent path => exit 2)
#   4. unit + property test suites
#   5. deepcheck gate (bin/deepcheck, typed-tree whole-program
#      analysis over dune's .cmt artifacts): the tree passes the
#      exception-escape, fork-safety and layering analyses against the
#      committed deepcheck.{escapes,forkinit,layers} policy files; both
#      analyzers' --json output round-trips through Obs.Json; a seeded
#      allowlist deletion, a temporary dune edit (circuit -> serve), a
#      stale .cmt and an unresolvable fork entry are each refused with
#      the right exit code
#   6. dependency-scheme gate: solve a generated example suite twice
#      (--dep-scheme trivial vs rp) under --check full, diff the verdict
#      lines byte-for-byte, assert rp never grows the MaxSAT elimination
#      set and prunes at least one edge on the c432 PEC family, and cmp
#      each instance's `hqs analyze` report against its pinned fixture
#      under test/fixtures/analysis/
#   7. inprocessing gate: re-solve the example suite with the CNF
#      inprocessing engine on vs off under --check full and diff the
#      verdict lines byte-for-byte; assert that the deleted mode
#      `--inproc full` is a usage error (exit 2); run `hqs analyze` on
#      the committed fixture and assert at least one SCC merge and one subsumption
#      were found and audited; run it on a generated z4 instance and
#      assert at least one self-subsuming strengthening was found and
#      audited; assert the engine finds gates on a PEC
#      instance under --check full; prove the no-stdout lint rule fires
#      on a seeded stdout write under lib/
#   8. elimination gate: solve the example suite plus adder, z4 and
#      c432 instances under --check full, plain and with --model, and
#      diff the verdict lines byte-for-byte; every SAT verdict must
#      carry a verified Skolem model, and every UNSAT verdict must be
#      refuted by iDQ in one `hqs sweep` (UNSAT in both the hqs_outcome
#      and idq_outcome columns; an iDQ timeout fails the gate)
#   9. full-check smoke solve: generate a small PEC instance and solve
#      it with the soundness auditor at full depth (HQS_CHECK=full),
#      proving the stage audits end-to-end through the real CLI; then
#      the memout gate: a node-limit blowup is a memout (exit 125)
#      at once, not a timeout after a detour through a fallback, and
#      the --stats line on that exit shows peak-nodes at the limit and
#      a non-zero qbf-time; the same instance swept gives an MO row whose
#      hqs_peak_nodes column reaches the limit, and a sweep under a
#      malformed HQS_CHECK, given the deleted --cpu-limit, or given
#      --jobs 0 or --retries 0, is a usage error (exit 2); then the Table I gate: solve all 154 `genpec
#      suite` instances at three node limits (test/table1.sh) and diff
#      each exit code and maxsat-set= against test/fixtures/table1.expected
#  10. traced smoke solve: solve an instance with incomparable dependency
#      sets under --trace and validate the trace with bin/tracecheck
#      (well-formed Chrome JSON, balanced spans, >= 6 pipeline phases)
#  11. supervised mini-sweep: run `hqs sweep` over a generated instance
#      directory with 2 workers and a chaos-injected worker kill,
#      asserting the victim is quarantined as a CRASH row while the rest
#      solve; then kill a journaled sweep midway (SIGKILL, torn tail and
#      all) and prove --resume completes exactly the remaining tasks and
#      that a second resume executes nothing and reproduces the report
#      byte-for-byte
#  12. serve gate: start the persistent daemon with a cache, a trace and
#      a chaos-armed worker kill; fire 8 concurrent queries (with
#      duplicates), assert every client gets a structured verdict, a
#      sequential duplicate is served from the cache, the serve.*
#      metrics counted the crash and the hits, SIGTERM drains to exit 0,
#      and the emitted trace tracecheck-validates with serve.* events;
#      the daemon runs under --mem-limit 100, a heap budget per solve
#      that leaves the worker's inherited address space uncounted
#  13. distobs gate: a traced chaos-kill sweep must merge worker span
#      buffers under their own pid rows with cross-pid parent links
#      (tracecheck --min-pids/--min-cross-links); benchdiff passes on
#      the committed layer baseline (BENCH_layers.json) and trips on a
#      seeded 25% time inflation on each workload, a 25% counter
#      inflation and a 20% ratio drop; a chaos-killed daemon with --event-log
#      shows nonzero crash counters and latency quantiles via hqs top
#      and leaves a complete, trace-correlated JSONL event trail; the
#      raw-fd/no-stdout/mono-clock-span/fork-site lint rules fire on
#      seeded fixtures
#  14. cert gate: assert the isolated verifier links zero libraries
#      (dune describe) and that the cert-isolation lint rule fires on a
#      seeded solver reference; certify every example-suite instance
#      under --check full and verify each artifact with bin/certcheck
#      (exit 0, SAT and UNSAT both); refute a semantically corrupted
#      certificate (flipped Skolem output literal => exit 1); run the
#      certify example end-to-end against the external verifier; then
#      drill the daemon recovery path: a chaos-poisoned certificate must
#      tombstone the cache entry, re-solve under the escalated config,
#      ship a verifiable artifact to the client, and leave the failure
#      visible in the event log (cert_audit) and hqs top
set -eu
cd "$(dirname "$0")"

echo "== build =="
dune build

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== format =="
  dune build @fmt
else
  echo "== format: skipped (ocamlformat not installed) =="
fi

echo "== lint =="
dune exec bin/lint.exe -- lib bin test examples
# the driver must refuse paths it cannot lint, not silently pass them
lint_status=0
dune exec bin/lint.exe -- /nonexistent/path >/dev/null 2>&1 || lint_status=$?
if [ "$lint_status" != 2 ]; then
  echo "== ci FAILED: lint on a nonexistent path exited $lint_status (want 2) =="
  exit 1
fi

echo "== tests =="
dune runtest

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
HQS_BIN=_build/default/bin/hqs_cli.exe

echo "== deepcheck (typed-tree whole-program analysis) =="
# the built binary is invoked directly: deepcheck shells out to
# `dune describe`, which needs the build lock `dune exec` would hold
DEEPCHECK=_build/default/bin/deepcheck.exe
# 1) the real tree passes all three analyses against the committed
#    policy files (deepcheck.escapes / .forkinit / .layers)
"$DEEPCHECK" || {
  echo "== ci FAILED: deepcheck found violations on a clean tree =="
  exit 1
}
# 2) machine output: both analyzers' --json documents must round-trip
#    through Obs.Json (same checker the trace pipeline uses)
"$DEEPCHECK" --json >"$tmp/deepcheck.json"
dune exec bin/tracecheck.exe -- "$tmp/deepcheck.json" --json-only
dune exec bin/lint.exe -- --json lib bin test examples >"$tmp/lint.json"
dune exec bin/tracecheck.exe -- "$tmp/lint.json" --json-only
# 3) seeded escape: drop one allowlisted exception and the exn-escape
#    rule must fire — an allowlist edit nobody notices is not a gate
grep -v 'Cert.Parse_error' deepcheck.escapes >"$tmp/escapes.seeded"
esc_status=0
"$DEEPCHECK" --escapes "$tmp/escapes.seeded" >"$tmp/dc.escape.out" 2>&1 || esc_status=$?
if [ "$esc_status" != 1 ] || ! grep -q 'exn-escape' "$tmp/dc.escape.out" \
  || ! grep -q 'Cert.Parse_error' "$tmp/dc.escape.out"; then
  echo "== ci FAILED: seeded escape not flagged (exit $esc_status) =="
  cat "$tmp/dc.escape.out"
  exit 1
fi
# 4) seeded layering: a real (temporary) dune edit adds circuit -> serve;
#    the captured describe must trip the layering rule, proving the gate
#    checks what dune actually links, not the comments
cp lib/circuit/dune "$tmp/circuit.dune.orig"
printf '(library\n (name circuit)\n (libraries dqbf serve hqs_util))\n' >lib/circuit/dune
dd_status=0
dune describe >"$tmp/describe.seeded" 2>"$tmp/describe.err" || dd_status=$?
cp "$tmp/circuit.dune.orig" lib/circuit/dune
if [ "$dd_status" != 0 ]; then
  echo "== ci FAILED: dune describe on the seeded layering edit exited $dd_status =="
  cat "$tmp/describe.err"
  exit 1
fi
lay_status=0
"$DEEPCHECK" --describe "$tmp/describe.seeded" >"$tmp/dc.layer.out" 2>&1 || lay_status=$?
if [ "$lay_status" != 1 ] || ! grep -q 'layering' "$tmp/dc.layer.out" \
  || ! grep -q "depends on local library 'serve'" "$tmp/dc.layer.out"; then
  echo "== ci FAILED: seeded layering violation not flagged (exit $lay_status) =="
  cat "$tmp/dc.layer.out"
  exit 1
fi
# 5) staleness refusal: an edited source with an old .cmt is exit 2 with
#    a pointed message, never a silent pass over stale typed trees
#    (dune content-hashes, so restoring freshness needs touch -r, not a
#    rebuild)
touch lib/util/mono.ml
stale_status=0
"$DEEPCHECK" >"$tmp/dc.stale.out" 2>&1 || stale_status=$?
touch -r _build/default/lib/util/.hqs_util.objs/byte/hqs_util__Mono.cmt lib/util/mono.ml
if [ "$stale_status" != 2 ] || ! grep -q 'newer than its .cmt' "$tmp/dc.stale.out"; then
  echo "== ci FAILED: stale .cmt not refused (exit $stale_status) =="
  cat "$tmp/dc.stale.out"
  exit 1
fi
# 6) a forkinit entry that no longer resolves is a config error (exit 2):
#    fork-safety whose entry points vanished in a refactor checks nothing
printf 'entry No.Such.Entry\n' >"$tmp/forkinit.seeded"
fk_status=0
"$DEEPCHECK" --forkinit "$tmp/forkinit.seeded" >"$tmp/dc.fork.out" 2>&1 || fk_status=$?
if [ "$fk_status" != 2 ] || ! grep -q 'does not resolve' "$tmp/dc.fork.out"; then
  echo "== ci FAILED: unresolvable forkinit entry not refused (exit $fk_status) =="
  cat "$tmp/dc.fork.out"
  exit 1
fi
echo "c deepcheck gate: tree clean, JSON round-trips, seeded escape/layering/staleness/forkinit all refused"

echo "== analysis (dependency schemes) =="
mkdir -p "$tmp/an"
dune exec bin/genpec.exe -- sweep pec_xor --sizes=2,3 --boxes-list=1,2 --out "$tmp/an" >/dev/null
dune exec bin/genpec.exe -- sweep c432 --sizes=2 --boxes-list=3 --out "$tmp/an" >/dev/null
: >"$tmp/verdicts.trivial"
: >"$tmp/verdicts.rp"
total_pruned=0
for f in "$tmp/an"/*.dqdimacs; do
  id=$(basename "$f" .dqdimacs)
  for scheme in trivial rp; do
    an_status=0
    "$HQS_BIN" "$f" --dep-scheme "$scheme" --check full --stats --timeout 60 \
      >"$tmp/an.$scheme.out" 2>&1 || an_status=$?
    case "$an_status" in
    10 | 20) : ;;
    *)
      echo "== ci FAILED: $scheme-scheme solve on $id exited $an_status =="
      cat "$tmp/an.$scheme.out"
      exit 1
      ;;
    esac
    grep '^s ' "$tmp/an.$scheme.out" | sed "s|^|$id |" >>"$tmp/verdicts.$scheme"
    sed -n 's/.*maxsat-set=\([0-9]*\).*/\1/p' "$tmp/an.$scheme.out" >"$tmp/ms.$scheme"
  done
  ms_trivial=$(cat "$tmp/ms.trivial")
  ms_rp=$(cat "$tmp/ms.rp")
  # a --stats line without the key must fail the gate, not skip it
  if [ -z "$ms_trivial" ] || [ -z "$ms_rp" ]; then
    echo "== ci FAILED: no maxsat-set= key in the --stats line on $id =="
    cat "$tmp/an.trivial.out" "$tmp/an.rp.out"
    exit 1
  fi
  if [ "$ms_rp" -gt "$ms_trivial" ]; then
    echo "== ci FAILED: rp grew the MaxSAT elimination set on $id ($ms_trivial -> $ms_rp) =="
    exit 1
  fi
  # the refinement report is pinned byte-for-byte to its committed fixture
  "$HQS_BIN" analyze "$f" >"$tmp/an.report"
  cmp "$tmp/an.report" "test/fixtures/analysis/$id.analysis" || {
    echo "== ci FAILED: hqs analyze report on $id differs from test/fixtures/analysis/$id.analysis =="
    diff "test/fixtures/analysis/$id.analysis" "$tmp/an.report" || true
    exit 1
  }
  pruned=$(sed -n 's/^s analysis pruned=\([0-9]*\).*/\1/p' "$tmp/an.report")
  total_pruned=$((total_pruned + ${pruned:-0}))
done
cmp "$tmp/verdicts.trivial" "$tmp/verdicts.rp" || {
  echo "== ci FAILED: trivial and rp schemes disagree on a verdict =="
  diff "$tmp/verdicts.trivial" "$tmp/verdicts.rp" || true
  exit 1
}
if [ "$total_pruned" -lt 1 ]; then
  echo "== ci FAILED: analyzer pruned no edges across the example suite =="
  exit 1
fi
echo "c analysis gate: $total_pruned edge(s) pruned, verdicts identical"

echo "== inproc =="
# 1) engine on and off must not move a single verdict byte under the
#    full auditor, across the same example suite the analysis gate used
modes="on off"
for ip in $modes; do : >"$tmp/verdicts.inproc-$ip"; done
for f in "$tmp/an"/*.dqdimacs; do
  id=$(basename "$f" .dqdimacs)
  for ip in $modes; do
    ip_status=0
    "$HQS_BIN" "$f" --inproc "$ip" --check full --timeout 60 \
      >"$tmp/ip.$ip.out" 2>&1 || ip_status=$?
    case "$ip_status" in
    10 | 20) : ;;
    *)
      echo "== ci FAILED: --inproc $ip solve on $id exited $ip_status =="
      cat "$tmp/ip.$ip.out"
      exit 1
      ;;
    esac
    grep '^s ' "$tmp/ip.$ip.out" | sed "s|^|$id |" >>"$tmp/verdicts.inproc-$ip"
  done
done
cmp "$tmp/verdicts.inproc-on" "$tmp/verdicts.inproc-off" || {
  echo "== ci FAILED: inproc on and off disagree on a verdict =="
  diff "$tmp/verdicts.inproc-on" "$tmp/verdicts.inproc-off" || true
  exit 1
}
# the deleted full mode is a usage error, by flag and by environment
for how in flag env; do
  full_status=0
  if [ "$how" = flag ]; then
    "$HQS_BIN" "$tmp/an/pec_xor_n2_k1_ok.dqdimacs" --inproc full \
      >"$tmp/ip.full.out" 2>&1 || full_status=$?
  else
    HQS_INPROC=full "$HQS_BIN" "$tmp/an/pec_xor_n2_k1_ok.dqdimacs" \
      >"$tmp/ip.full.out" 2>&1 || full_status=$?
  fi
  if [ "$full_status" != 2 ]; then
    echo "== ci FAILED: --inproc full ($how) exited $full_status (want 2) =="
    cat "$tmp/ip.full.out"
    exit 1
  fi
done
# 2) the committed fixture must exhibit (and pass the audit for) at least
#    one SCC merge and one subsumption
ip_line=$("$HQS_BIN" analyze test/fixtures/inproc_basic.dqdimacs --check full \
  | sed -n 's/^s inproc //p')
case "$ip_line" in
*"merges="[1-9]*) : ;;
*)
  echo "== ci FAILED: no SCC merge on the inproc fixture ($ip_line) =="
  exit 1
  ;;
esac
case "$ip_line" in
*"subsumed="[1-9]*) : ;;
*)
  echo "== ci FAILED: no subsumption on the inproc fixture ($ip_line) =="
  exit 1
  ;;
esac
# 3) the fixture strengthens nothing, so a z4 instance, whose rules do,
#    puts self-subsuming strengthening under the full audit
dune exec bin/genpec.exe -- one z4 --size 1 --boxes 1 --out "$tmp" >/dev/null
st_line=$("$HQS_BIN" analyze "$tmp/z4_c1_k1_ok.dqdimacs" --check full \
  | sed -n 's/^s inproc //p')
case "$st_line" in
*"strengthened="[1-9]*) : ;;
*)
  echo "== ci FAILED: no strengthening on z4_c1_k1_ok ($st_line) =="
  exit 1
  ;;
esac
# 4) the engine detects gates on a PEC instance, and they pass the full
#    audit (the gate checks of Check.audit_inproc and the semantic pass)
gates=$("$HQS_BIN" "$tmp/an/pec_xor_n3_k2_ok.dqdimacs" --check full --metrics 2>&1 \
  | awk '$3 == "preprocess.gates" { print $4 }')
case "$gates" in
[1-9]*) : ;;
*)
  echo "== ci FAILED: no gate detected on pec_xor_n3_k2_ok (preprocess.gates = '$gates') =="
  exit 1
  ;;
esac
# 5) the no-stdout lint rule fires on a seeded stdout write under lib/
mkdir -p "$tmp/lintbad/lib/fake"
printf 'let f x = Printf.printf "%%d\\n" x\n' >"$tmp/lintbad/lib/fake/mod.ml"
printf 'val f : int -> unit\n' >"$tmp/lintbad/lib/fake/mod.mli"
nostdout_status=0
dune exec bin/lint.exe -- "$tmp/lintbad" >"$tmp/lintbad.out" 2>&1 || nostdout_status=$?
if [ "$nostdout_status" != 1 ] || ! grep -q 'no-stdout' "$tmp/lintbad.out"; then
  echo "== ci FAILED: seeded stdout write not flagged (exit $nostdout_status) =="
  cat "$tmp/lintbad.out"
  exit 1
fi
echo "c inproc gate: verdicts identical, fixture merged+subsumed, z4 strengthened, $gates gates audited, no-stdout armed"

echo "== elim =="
# every verdict of the elimination pipeline is checked by code that did
# not produce it. Each instance is solved under the full auditor twice,
# plain and with --model, and the two verdicts must agree byte for byte;
# every SAT verdict must come with a Skolem model verified against the
# original matrix. Every UNSAT verdict is refuted independently by iDQ
# (lib/idq, the paper's baseline: instantiation refinement on the original
# PCNF) in one `hqs sweep` over the UNSAT instances, which must exit 0 with
# UNSAT in both the hqs_outcome and the idq_outcome column of every row;
# an iDQ timeout (TO) fails the gate. Both checks start from the input
# file, so they cover preprocessing and the DQBF main loop before and after
# linearization. The instances: the analysis suite, one small adder and z4
# instance, the two ladder shapes on which quantifier localization changes
# the elimination most (adder_b6_k1_ok, SAT; c432_g3l5_k2_f, UNSAT), the
# smallest instance whose QBF back end ran a FRAIG sweep before the sweep
# was deleted (adder_b5_k3_ok, SAT), and a frontier instance whose cyclic
# phase leans on the localized, cheapest-first Theorem-2 step
# (adder_b6_k2_ok, SAT); the known verdicts of the last four are asserted.
mkdir -p "$tmp/el"
dune exec bin/genpec.exe -- one adder --size 2 --boxes 1 --out "$tmp/el" >/dev/null
dune exec bin/genpec.exe -- one z4 --size 2 --boxes 1 --out "$tmp/el" >/dev/null
dune exec bin/genpec.exe -- one adder --size 6 --boxes 1 --out "$tmp/el" >/dev/null
dune exec bin/genpec.exe -- one c432 --size 5 --boxes 2 --fault --out "$tmp/el" >/dev/null
dune exec bin/genpec.exe -- one adder --size 5 --boxes 3 --out "$tmp/el" >/dev/null
dune exec bin/genpec.exe -- one adder --size 6 --boxes 2 --out "$tmp/el" >/dev/null
for mode in default model; do : >"$tmp/verdicts.elim-$mode"; done
n_el=0
n_models=0
el_unsat=""
n_unsat=0
for f in "$tmp/an"/*.dqdimacs "$tmp/el"/*.dqdimacs; do
  id=$(basename "$f" .dqdimacs)
  n_el=$((n_el + 1))
  for mode in default model; do
    flags=""
    [ "$mode" = model ] && flags="--model"
    el_status=0
    # $flags is deliberately unquoted: empty for the default mode
    "$HQS_BIN" "$f" $flags --check full --timeout 60 >"$tmp/el.out" 2>&1 || el_status=$?
    case "$el_status" in
    10 | 20) : ;;
    *)
      echo "== ci FAILED: $mode solve on $id exited $el_status =="
      cat "$tmp/el.out"
      exit 1
      ;;
    esac
    if [ "$mode" = model ] && [ "$el_status" = 10 ]; then
      grep -qx 'c model verified' "$tmp/el.out" || {
        echo "== ci FAILED: the model of SAT instance $id was not verified =="
        grep -v '^v ' "$tmp/el.out"
        exit 1
      }
      n_models=$((n_models + 1))
    fi
    if [ "$mode" = default ] && [ "$el_status" = 20 ]; then
      el_unsat="$el_unsat $f"
      n_unsat=$((n_unsat + 1))
    fi
    grep '^s ' "$tmp/el.out" | sed "s|^|$id |" >>"$tmp/verdicts.elim-$mode"
  done
done
for known in 'adder_b6_k1_ok s cnf SAT' 'c432_g3l5_k2_f s cnf UNSAT' \
  'adder_b5_k3_ok s cnf SAT' 'adder_b6_k2_ok s cnf SAT'; do
  grep -qx "$known" "$tmp/verdicts.elim-default" || {
    echo "== ci FAILED: expected verdict '$known' =="
    cat "$tmp/verdicts.elim-default"
    exit 1
  }
done
cmp "$tmp/verdicts.elim-default" "$tmp/verdicts.elim-model" || {
  echo "== ci FAILED: the default and model solves disagree on a verdict =="
  diff "$tmp/verdicts.elim-default" "$tmp/verdicts.elim-model" || true
  exit 1
}
# iDQ refutes every UNSAT verdict; $el_unsat is deliberately unquoted
# (the file list). The columns are looked up by header name.
sweep_status=0
"$HQS_BIN" sweep $el_unsat --timeout 30 -j 2 >"$tmp/elim-sweep.csv" 2>"$tmp/elim-sweep.err" \
  || sweep_status=$?
if [ "$sweep_status" != 0 ]; then
  echo "== ci FAILED: the iDQ cross-check sweep exited $sweep_status =="
  cat "$tmp/elim-sweep.err" "$tmp/elim-sweep.csv"
  exit 1
fi
n_refuted=$(awk -F, '
  NR == 1 {
    for (i = 1; i <= NF; i++) col[$i] = i
    if (!col["hqs_outcome"] || !col["idq_outcome"]) { missing = 1; exit }
    next
  }
  $col["hqs_outcome"] == "UNSAT" && $col["idq_outcome"] == "UNSAT" { n++; next }
  { print "row " $1 ": hqs_outcome=" $col["hqs_outcome"] " idq_outcome=" $col["idq_outcome"]; bad = 1 }
  END { if (missing || bad) exit 1; print n + 0 }' "$tmp/elim-sweep.csv") || {
  echo "== ci FAILED: iDQ did not refute every UNSAT verdict =="
  echo "$n_refuted"
  cat "$tmp/elim-sweep.csv"
  exit 1
}
if [ "$n_refuted" != "$n_unsat" ]; then
  echo "== ci FAILED: the iDQ sweep refuted $n_refuted of $n_unsat UNSAT verdicts =="
  cat "$tmp/elim-sweep.csv"
  exit 1
fi
echo "c elim gate: $n_el instances, default and model verdicts identical," \
  "$n_models SAT models verified, $n_refuted UNSAT verdicts refuted by iDQ"

echo "== full-check smoke solve =="
f=$(dune exec bin/genpec.exe -- one pec_xor --size 3 --boxes 1 --out "$tmp")
status=0
HQS_CHECK=full dune exec bin/hqs_cli.exe -- "$f" --timeout 60 --stats || status=$?
case "$status" in
10 | 20) : ;;
*)
    echo "== ci FAILED: smoke solve exited $status =="
    exit 1
    ;;
esac

echo "== memout =="
# adder_b4_k2_f blows a 4000-node limit after linearization:
# that is the paper's MO, reported at once (about 20 ms), not after
# the whole 30 s budget; --stats explains it with the peak node count
f=$(dune exec bin/genpec.exe -- one adder --size 4 --boxes 2 --fault --out "$tmp")
memout_status=0
"$HQS_BIN" "$f" --node-limit 4000 -t 30 --stats >"$tmp/memout.out" 2>"$tmp/memout.err" \
  || memout_status=$?
if [ "$memout_status" != 125 ]; then
  echo "== ci FAILED: $(basename "$f") at --node-limit 4000 exited $memout_status (want 125) =="
  cat "$tmp/memout.out" "$tmp/memout.err"
  exit 1
fi
# the stats line explains the memout: the peak counts the manager, which
# stood at the limit, and the time after linearization is counted
memout_peak=$(sed -n 's/.*peak-nodes=\([0-9]*\).*/\1/p' "$tmp/memout.err")
memout_qbf=$(sed -n 's/.*qbf-time=\([0-9.]*\).*/\1/p' "$tmp/memout.err")
if [ -z "$memout_peak" ] || [ "$memout_peak" -lt 4000 ] || [ -z "$memout_qbf" ] \
  || [ "$memout_qbf" = 0.000 ]; then
  echo "== ci FAILED: the memout stats line shows peak-nodes='$memout_peak' (want >= 4000)" \
    "and qbf-time='$memout_qbf' (want > 0) =="
  cat "$tmp/memout.err"
  exit 1
fi
# the sweep's MO row carries the same stats: its hqs_peak_nodes column,
# looked up by header name, reaches the limit
"$HQS_BIN" sweep "$f" --node-limit 4000 -t 30 >"$tmp/memout.csv" 2>"$tmp/memout-sweep.err" || {
  echo "== ci FAILED: the memout sweep exited non-zero =="
  cat "$tmp/memout-sweep.err"
  exit 1
}
sweep_peak=$(awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
  col["hqs_outcome"] && col["hqs_peak_nodes"] { print $col["hqs_outcome"], $col["hqs_peak_nodes"] }' \
  "$tmp/memout.csv")
case "$sweep_peak" in
"MO "[0-9]*) [ "${sweep_peak#MO }" -ge 4000 ] ;;
*) false ;;
esac || {
  echo "== ci FAILED: the memout sweep row reads '$sweep_peak' (want MO with hqs_peak_nodes >= 4000) =="
  cat "$tmp/memout.csv"
  exit 1
}
# the sweep resolves HQS_CHECK like the solve: a malformed level is a
# usage error, not checks silently off
bogus_status=0
HQS_CHECK=bogus "$HQS_BIN" sweep "$f" -t 5 >/dev/null 2>&1 || bogus_status=$?
if [ "$bogus_status" != 2 ]; then
  echo "== ci FAILED: HQS_CHECK=bogus hqs sweep exited $bogus_status (want 2) =="
  exit 1
fi
# the time limits are -t and the wall backstop; --cpu-limit is gone
cpu_status=0
"$HQS_BIN" sweep --cpu-limit 5 "$f" >/dev/null 2>&1 || cpu_status=$?
if [ "$cpu_status" != 2 ]; then
  echo "== ci FAILED: hqs sweep --cpu-limit 5 exited $cpu_status (want 2) =="
  exit 1
fi
# a worker count or attempt budget below 1 is a usage error, refused
# before any worker is forked
for bad in "--jobs 0" "--retries 0"; do
  bad_status=0
  # $bad is deliberately unquoted: a flag and its value
  "$HQS_BIN" sweep $bad "$f" >/dev/null 2>"$tmp/bad.err" || bad_status=$?
  if [ "$bad_status" != 2 ] || ! grep -q '^error: ' "$tmp/bad.err"; then
    echo "== ci FAILED: hqs sweep $bad exited $bad_status (want 2 with an error: line) =="
    cat "$tmp/bad.err"
    exit 1
  fi
done

echo "== table1 =="
# the verdicts of the paper's Table I suite are pinned: every instance's
# exit code (SAT, UNSAT or MO) and its MaxSAT elimination-set size at the
# node limits 400000, 30000 and 4000 must match the committed fixture
mkdir -p "$tmp/suite"
dune exec bin/genpec.exe -- suite --out "$tmp/suite" >/dev/null
sh test/table1.sh "$HQS_BIN" "$tmp/suite" >"$tmp/table1.got"
diff test/fixtures/table1.expected "$tmp/table1.got" || {
  echo "== ci FAILED: Table I exit codes or maxsat-set= differ from test/fixtures/table1.expected =="
  exit 1
}
echo "c table1 gate: $(wc -l <"$tmp/table1.got") lines identical to the fixture"

echo "== traced smoke solve =="
# boxes=2 makes the dependency sets incomparable, so the solve actually
# runs elimination-set selection and universal expansion before the
# linear prefix is eliminated — the trace must cover the whole pipeline
f2=$(dune exec bin/genpec.exe -- one pec_xor --size 3 --boxes 2 --out "$tmp")
trace_status=0
dune exec bin/hqs_cli.exe -- "$f2" --trace "$tmp/trace.json" --metrics --timeout 60 2>"$tmp/trace.err" || trace_status=$?
case "$trace_status" in
10 | 20) : ;;
*)
    echo "== ci FAILED: traced solve exited $trace_status =="
    cat "$tmp/trace.err"
    exit 1
    ;;
esac
dune exec bin/tracecheck.exe -- "$tmp/trace.json" --min-spans 6 --verbose
grep -q '^c metric ' "$tmp/trace.err" || {
  echo "== ci FAILED: --metrics printed no metric lines =="
  exit 1
}
echo "== supervised mini-sweep (crash injection) =="
# the sweep CLI must be invoked as the built binary, not through
# `dune exec`, so the midway SIGKILL below lands on the supervisor itself
mkdir -p "$tmp/sweep"
dune exec bin/genpec.exe -- sweep pec_xor --sizes=3,4,5 --boxes-list=1 --out "$tmp/sweep" >/dev/null
victim=""
for f in "$tmp/sweep"/*.dqdimacs; do victim=$(basename "$f" .dqdimacs); break; done
sweep_status=0
"$HQS_BIN" sweep "$tmp/sweep"/*.dqdimacs --jobs 2 --timeout 10 --retries 2 \
  --chaos-kill "$victim/hqs" >"$tmp/crash.csv" 2>"$tmp/crash.log" || sweep_status=$?
if [ "$sweep_status" != 3 ]; then
  echo "== ci FAILED: crash-injected sweep exited $sweep_status (want 3) =="
  cat "$tmp/crash.log"
  exit 1
fi
grep -q "^$victim,.*,CRASH," "$tmp/crash.csv" || {
  echo "== ci FAILED: no CRASH row for quarantined victim $victim =="
  cat "$tmp/crash.csv"
  exit 1
}
# every other instance still produced a clean verdict
if grep -v "^id," "$tmp/crash.csv" | grep -v "^$victim," | grep -qv ",solved,"; then
  echo "== ci FAILED: a bystander instance did not solve =="
  cat "$tmp/crash.csv"
  exit 1
fi

echo "== supervised mini-sweep (kill midway + resume) =="
journal="$tmp/sweep.jsonl"
"$HQS_BIN" sweep "$tmp/sweep"/*.dqdimacs --jobs 2 --timeout 10 --journal "$journal" \
  >"$tmp/part.csv" 2>/dev/null &
sweep_pid=$!
# wait for at least one fsynced journal line, then SIGKILL the supervisor
i=0
while [ "$(cat "$journal" 2>/dev/null | wc -l)" -lt 1 ]; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then break; fi
  sleep 0.1
done
kill -9 "$sweep_pid" 2>/dev/null || true
wait "$sweep_pid" 2>/dev/null || true
sleep 2 # let orphaned workers drain
lines_before=$(cat "$journal" 2>/dev/null | wc -l)
"$HQS_BIN" sweep "$tmp/sweep"/*.dqdimacs --jobs 2 --timeout 10 --journal "$journal" \
  --resume "$journal" >"$tmp/r1.csv" 2>"$tmp/r1.log"
grep -q "from journal" "$tmp/r1.log" || {
  echo "== ci FAILED: resume log missing journal accounting =="
  cat "$tmp/r1.log"
  exit 1
}
# the resumed run must not have re-executed the journaled tasks
total_tasks=$((2 * $(ls "$tmp/sweep"/*.dqdimacs | wc -l)))
executed=$(sed -n 's/^c sweep: \([0-9]*\) tasks executed.*/\1/p' "$tmp/r1.log")
if [ -z "$executed" ] || [ "$executed" -gt $((total_tasks - lines_before)) ]; then
  echo "== ci FAILED: resume executed $executed tasks, journal already had $lines_before of $total_tasks =="
  cat "$tmp/r1.log"
  exit 1
fi
# a second resume executes nothing and reproduces the report byte-for-byte
"$HQS_BIN" sweep "$tmp/sweep"/*.dqdimacs --jobs 2 --timeout 10 --resume "$journal" \
  >"$tmp/r2.csv" 2>"$tmp/r2.log"
grep -q "^c sweep: 0 tasks executed" "$tmp/r2.log" || {
  echo "== ci FAILED: second resume still executed tasks =="
  cat "$tmp/r2.log"
  exit 1
}
cmp "$tmp/r1.csv" "$tmp/r2.csv" || {
  echo "== ci FAILED: resumed reports are not byte-identical =="
  exit 1
}

echo "== serve (daemon: concurrency, cache, chaos, drain) =="
sock="$tmp/hqs.sock"
mkdir -p "$tmp/srv"
dune exec bin/genpec.exe -- sweep pec_xor --sizes=2,3 --boxes-list=1,2 --out "$tmp/srv" >/dev/null
# --chaos-kill 2 arms the second solve's first dispatch: that worker is
# SIGKILLed mid-request and the client must still get a verdict via the
# retry. --mem-limit 100 is each solve's heap budget; the worker's
# address space, a copy of the daemon's, does not count against it
"$HQS_BIN" serve --socket "$sock" --workers 2 --cache "$tmp/serve_cache.jsonl" \
  --trace "$tmp/serve_trace.json" --chaos-kill 2 --mem-limit 100 \
  >"$tmp/serve.log" 2>&1 &
serve_pid=$!
i=0
until "$HQS_BIN" query --socket "$sock" --ping >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "== ci FAILED: serve daemon never answered a ping =="
    cat "$tmp/serve.log"
    exit 1
  fi
  sleep 0.1
done
# 8 concurrent requests: each instance twice, so the batch contains
# duplicates; every client must come back with a structured verdict
# (exit 10/20) even though one dispatch is chaos-killed
qpids=""
n=0
for f in "$tmp/srv"/*.dqdimacs "$tmp/srv"/*.dqdimacs; do
  n=$((n + 1))
  "$HQS_BIN" query --socket "$sock" "$f" --timeout 60 >"$tmp/q$n.out" 2>&1 &
  qpids="$qpids $!"
done
if [ "$n" -lt 8 ]; then
  echo "== ci FAILED: serve gate only issued $n concurrent requests (want >= 8) =="
  exit 1
fi
k=0
for qp in $qpids; do
  k=$((k + 1))
  q_status=0
  wait "$qp" || q_status=$?
  case "$q_status" in
  10 | 20) : ;;
  *)
    echo "== ci FAILED: concurrent query $k exited $q_status (want a verdict) =="
    cat "$tmp/q$k.out"
    cat "$tmp/serve.log"
    exit 1
    ;;
  esac
done
# a sequential duplicate of an already-solved instance must hit the cache
dup=$(ls "$tmp/srv"/*.dqdimacs | head -1)
dup_status=0
"$HQS_BIN" query --socket "$sock" "$dup" >"$tmp/dup.out" 2>&1 || dup_status=$?
case "$dup_status" in
10 | 20) : ;;
*)
  echo "== ci FAILED: duplicate query exited $dup_status =="
  cat "$tmp/dup.out"
  exit 1
  ;;
esac
grep -q '(cached)' "$tmp/dup.out" || {
  echo "== ci FAILED: duplicate query was not served from the cache =="
  cat "$tmp/dup.out"
  exit 1
}
stats_missing=""
for _ in $(seq 1 25); do
  "$HQS_BIN" query --socket "$sock" --stats >"$tmp/serve_stats.out"
  stats_missing=""
  for m in serve.requests serve.cache_hits serve.worker_crashes; do
    v=$(sed -n "s/^c metric $m \([0-9][0-9.]*\).*/\1/p" "$tmp/serve_stats.out")
    if [ -z "$v" ] || [ "${v%%.*}" -lt 1 ]; then
      stats_missing="$m is '${v:-missing}'"
      break
    fi
  done
  [ -z "$stats_missing" ] && break
  sleep 0.2
done
if [ -n "$stats_missing" ]; then
  echo "== ci FAILED: daemon metric $stats_missing (want >= 1) =="
  cat "$tmp/serve_stats.out"
  exit 1
fi
# graceful drain: SIGTERM, daemon exits 0 and removes its socket
kill -TERM "$serve_pid"
drain_status=0
wait "$serve_pid" || drain_status=$?
if [ "$drain_status" != 0 ]; then
  echo "== ci FAILED: drained daemon exited $drain_status (want 0) =="
  cat "$tmp/serve.log"
  exit 1
fi
if [ -e "$sock" ]; then
  echo "== ci FAILED: daemon left its socket behind =="
  exit 1
fi
# the daemon's trace must be well-formed and carry the serve.* telemetry
# (the daemon side has two span names, serve.request and serve.complete;
# the per-job solver spans live in the worker processes)
dune exec bin/tracecheck.exe -- "$tmp/serve_trace.json" --min-spans 2 --verbose
for ev in serve.request serve.complete serve.worker.crash serve.metric; do
  grep -q "$ev" "$tmp/serve_trace.json" || {
    echo "== ci FAILED: serve trace is missing $ev events =="
    exit 1
  }
done

echo "== distobs (fork-spanning traces, live introspection, bench gate) =="
# 1) fork-spanning sweep trace: a 2-job chaos-kill sweep must still merge
#    every worker's span buffer under its own pid row, stitched to the
#    supervisor's sup.task spans — >= 2 pids and >= 1 cross-pid link
distobs_status=0
"$HQS_BIN" sweep "$tmp/sweep"/*.dqdimacs --jobs 2 --timeout 10 --retries 2 \
  --chaos-kill "$victim/hqs" --trace "$tmp/sweep_trace.json" \
  >"$tmp/distobs.csv" 2>"$tmp/distobs.log" || distobs_status=$?
if [ "$distobs_status" != 3 ]; then
  echo "== ci FAILED: traced chaos sweep exited $distobs_status (want 3) =="
  cat "$tmp/distobs.log"
  exit 1
fi
dune exec bin/tracecheck.exe -- "$tmp/sweep_trace.json" \
  --min-spans 3 --min-pids 2 --min-cross-links 1 --verbose

# 2) bench regression gate: the committed layer baseline passes against
#    itself; a seeded 25% time inflation on each workload, a 25% counter
#    inflation and a 20% drop of a higher-is-better ratio each trip it,
#    and a 25% rise of that ratio (an improvement) does not — a gate
#    that cannot fail is not a gate
dune exec bin/benchdiff.exe -- BENCH_layers.json BENCH_layers.json >"$tmp/bd.ok.out"
for inf in 'ladder/.*_s=1.25' 'frontend/.*_s=1.25' 'ladder/aig.nodes_alloc=1.25' \
  'ladder/aig.strash_hit_ratio=0.8'; do
  bd_status=0
  dune exec bin/benchdiff.exe -- BENCH_layers.json BENCH_layers.json \
    --inflate "$inf" >"$tmp/bd.bad.out" 2>&1 || bd_status=$?
  if [ "$bd_status" != 1 ] || ! grep -q '^REGRESSION ' "$tmp/bd.bad.out"; then
    echo "== ci FAILED: seeded regression $inf not caught by benchdiff (exit $bd_status) =="
    cat "$tmp/bd.bad.out"
    exit 1
  fi
done
dune exec bin/benchdiff.exe -- BENCH_layers.json BENCH_layers.json \
  --inflate 'ladder/aig.strash_hit_ratio=1.25' >"$tmp/bd.up.out" || {
  echo "== ci FAILED: benchdiff flagged an improved higher-is-better ratio =="
  cat "$tmp/bd.up.out"
  exit 1
}

# 3) live daemon introspection: a chaos-killed daemon with an event log
#    must expose nonzero crash counters and latency quantiles to hqs top,
#    and leave a correlatable JSONL event trail behind
sock2="$tmp/hqs2.sock"
elog="$tmp/serve_events.jsonl"
"$HQS_BIN" serve --socket "$sock2" --workers 2 --chaos-kill 2 \
  --event-log "$elog" >"$tmp/serve2.log" 2>&1 &
serve2_pid=$!
i=0
until "$HQS_BIN" query --socket "$sock2" --ping >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "== ci FAILED: event-log daemon never answered a ping =="
    cat "$tmp/serve2.log"
    exit 1
  fi
  sleep 0.1
done
n=0
for f in "$tmp/srv"/*.dqdimacs; do
  n=$((n + 1))
  [ "$n" -gt 3 ] && break
  q2_status=0
  "$HQS_BIN" query --socket "$sock2" "$f" --timeout 60 >/dev/null 2>&1 || q2_status=$?
  case "$q2_status" in
  10 | 20) : ;;
  *)
    echo "== ci FAILED: event-log daemon query $n exited $q2_status =="
    cat "$tmp/serve2.log"
    exit 1
    ;;
  esac
done
crashes=""
for _ in $(seq 1 25); do
  "$HQS_BIN" top --socket "$sock2" --once >"$tmp/top.out"
  crashes=$(sed -n 's/^c crashes \([0-9]*\).*/\1/p' "$tmp/top.out")
  [ -n "$crashes" ] && [ "$crashes" -ge 1 ] && break
  sleep 0.2
done
if [ -z "$crashes" ] || [ "$crashes" -lt 1 ]; then
  echo "== ci FAILED: hqs top shows no worker crashes after a chaos kill =="
  cat "$tmp/top.out"
  exit 1
fi
grep -q 'p50=' "$tmp/top.out" || {
  echo "== ci FAILED: hqs top shows no latency quantiles after requests =="
  cat "$tmp/top.out"
  exit 1
}
kill -TERM "$serve2_pid"
serve2_status=0
wait "$serve2_pid" || serve2_status=$?
if [ "$serve2_status" != 0 ]; then
  echo "== ci FAILED: event-log daemon drain exited $serve2_status (want 0) =="
  cat "$tmp/serve2.log"
  exit 1
fi
for ev in '"ev":"start"' '"ev":"admit"' '"ev":"crash"' '"ev":"retry"' \
  '"ev":"complete"' '"ev":"stop"' '"trace":"serve-'; do
  grep -q "$ev" "$elog" || {
    echo "== ci FAILED: event log is missing $ev lines =="
    cat "$elog"
    exit 1
  }
done

# 4) lint fixtures: an event-log-writer-shaped module that bypasses the
#    fd/stdout discipline, a stray timestamp source, and a second fork
#    site next to Exec.Pool must all be flagged
mkdir -p "$tmp/distlint/lib/fake"
cat >"$tmp/distlint/lib/fake/writer.ml" <<'EOF'
let log path msg =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  print_endline msg;
  fd
EOF
printf 'val log : string -> string -> Unix.file_descr\n' >"$tmp/distlint/lib/fake/writer.mli"
cat >"$tmp/distlint/lib/fake/stamp.ml" <<'EOF'
let stamp () = Hqs_util.Mono.now ()
let cpu () = Sys.time ()
EOF
printf 'val stamp : unit -> float\nval cpu : unit -> float\n' >"$tmp/distlint/lib/fake/stamp.mli"
cat >"$tmp/distlint/lib/fake/spawn.ml" <<'EOF'
let spawn f = match Unix.fork () with 0 -> f (); Unix._exit 0 | pid -> pid
EOF
printf 'val spawn : (unit -> unit) -> int\n' >"$tmp/distlint/lib/fake/spawn.mli"
distlint_status=0
dune exec bin/lint.exe -- "$tmp/distlint" >"$tmp/distlint.out" 2>&1 || distlint_status=$?
if [ "$distlint_status" != 1 ]; then
  echo "== ci FAILED: lint fixtures exited $distlint_status (want 1) =="
  cat "$tmp/distlint.out"
  exit 1
fi
for rule in raw-fd no-stdout mono-clock-span fork-site; do
  grep -q "\[$rule\]" "$tmp/distlint.out" || {
    echo "== ci FAILED: seeded $rule violation not flagged =="
    cat "$tmp/distlint.out"
    exit 1
  }
done
echo "c distobs gate: trace stitched, bench gate trips, top live, event log complete"

echo "== cert (externally checkable certificates) =="
CERTCHECK=_build/default/bin/certcheck.exe
# 1) the verifier's trust story: it links not a single library. dune
#    describe is the ground truth for what the executable requires.
dune describe | grep -A1 '(names (certcheck))' | grep -q '(requires ())' || {
  echo "== ci FAILED: certcheck executable links libraries =="
  dune describe | grep -A1 '(names (certcheck))'
  exit 1
}
# ... and the source-level guard: the cert-isolation lint rule must fire
# on a seeded solver reference inside a bin/certcheck.ml
mkdir -p "$tmp/certlint/bin"
printf 'let f s = Cert.parse s\n' >"$tmp/certlint/bin/certcheck.ml"
certlint_status=0
dune exec bin/lint.exe -- "$tmp/certlint" >"$tmp/certlint.out" 2>&1 || certlint_status=$?
if [ "$certlint_status" != 1 ] || ! grep -q 'cert-isolation' "$tmp/certlint.out"; then
  echo "== ci FAILED: seeded cert-isolation violation not flagged (exit $certlint_status) =="
  cat "$tmp/certlint.out"
  exit 1
fi
# 2) certify the whole example suite (SAT and UNSAT families) under the
#    full auditor; every artifact must verify externally. An UNCERTIFIED
#    marker (certcheck exit 3) is tolerated only when the artifact says
#    so itself — capacity gaps are declared, never silent.
mkdir -p "$tmp/cert"
sat_inst=""
sat_cert=""
unsat_verified=0
for f in "$tmp/an"/*.dqdimacs; do
  id=$(basename "$f" .dqdimacs)
  cert="$tmp/cert/$id.cert"
  cert_solve=0
  "$HQS_BIN" "$f" --certify "$cert" --check full --timeout 60 \
    >"$tmp/cert/$id.out" 2>&1 || cert_solve=$?
  case "$cert_solve" in
  10 | 20) : ;;
  *)
    echo "== ci FAILED: certifying solve on $id exited $cert_solve =="
    cat "$tmp/cert/$id.out"
    exit 1
    ;;
  esac
  cc_status=0
  "$CERTCHECK" "$f" "$cert" >/dev/null 2>&1 || cc_status=$?
  case "$cc_status" in
  0)
    grep -q '^s cert UNSAT' "$cert" && unsat_verified=1
    if [ -z "$sat_cert" ] && grep -q '^s cert SAT' "$cert"; then
      sat_inst=$f
      sat_cert=$cert
    fi
    ;;
  3)
    grep -q '^s cert UNCERTIFIED' "$cert" || {
      echo "== ci FAILED: certcheck says uncertified but the artifact disagrees ($id) =="
      exit 1
    }
    ;;
  *)
    echo "== ci FAILED: certcheck rejected $id with exit $cc_status =="
    "$CERTCHECK" "$f" "$cert" || true
    exit 1
    ;;
  esac
done
if [ -z "$sat_cert" ] || [ "$unsat_verified" != 1 ]; then
  echo "== ci FAILED: suite did not yield both a verified SAT and UNSAT certificate =="
  exit 1
fi
# 3) a semantically corrupted artifact must be REFUTED (exit 1): flip the
#    parity of the first Skolem output literal. (A fingerprint edit is a
#    different failure class — malformed, exit 2.)
awk '{ if ($1 == "o" && !done) { done = 1; $3 = ($3 % 2 == 0) ? $3 + 1 : $3 - 1 } print }' \
  "$sat_cert" >"$tmp/cert/corrupt.cert"
corrupt_status=0
"$CERTCHECK" "$sat_inst" "$tmp/cert/corrupt.cert" >/dev/null 2>&1 || corrupt_status=$?
if [ "$corrupt_status" != 1 ]; then
  echo "== ci FAILED: corrupted certificate exited $corrupt_status (want 1 = refuted) =="
  "$CERTCHECK" "$sat_inst" "$tmp/cert/corrupt.cert" || true
  exit 1
fi
# 4) the worked example drives the same emit/round-trip/verify loop
#    programmatically and shells out to the external verifier
dune exec examples/certify.exe -- "$CERTCHECK" >"$tmp/certify_example.out" 2>&1 || {
  echo "== ci FAILED: certify example failed =="
  cat "$tmp/certify_example.out"
  exit 1
}
grep -q 'external certcheck: exit 0' "$tmp/certify_example.out" || {
  echo "== ci FAILED: certify example did not verify externally =="
  cat "$tmp/certify_example.out"
  exit 1
}
# 5) daemon recovery drill: --chaos-cert 1 poisons the first job's
#    certificate fingerprint after the solve; the post-certify audit must
#    catch it, tombstone the cache entry, re-solve under the escalated
#    config and still ship a verifiable artifact to the client
sock3="$tmp/hqs3.sock"
elog3="$tmp/cert_events.jsonl"
"$HQS_BIN" serve --socket "$sock3" --workers 2 --certify --check full \
  --chaos-cert 1 --event-log "$elog3" >"$tmp/serve3.log" 2>&1 &
serve3_pid=$!
i=0
until "$HQS_BIN" query --socket "$sock3" --ping >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "== ci FAILED: certifying daemon never answered a ping =="
    cat "$tmp/serve3.log"
    exit 1
  fi
  sleep 0.1
done
drill_status=0
"$HQS_BIN" query --socket "$sock3" "$sat_inst" --certify "$tmp/drill.cert" \
  --timeout 60 >"$tmp/drill.out" 2>&1 || drill_status=$?
if [ "$drill_status" != 10 ]; then
  echo "== ci FAILED: poisoned-cert drill query exited $drill_status (want 10 after recovery) =="
  cat "$tmp/drill.out"
  cat "$tmp/serve3.log"
  exit 1
fi
cc3_status=0
"$CERTCHECK" "$sat_inst" "$tmp/drill.cert" >/dev/null 2>&1 || cc3_status=$?
if [ "$cc3_status" != 0 ]; then
  echo "== ci FAILED: recovered daemon artifact did not verify (exit $cc3_status) =="
  "$CERTCHECK" "$sat_inst" "$tmp/drill.cert" || true
  exit 1
fi
# the audit failure must be visible to live introspection
cert_failures=""
for _ in $(seq 1 25); do
  "$HQS_BIN" top --socket "$sock3" --once >"$tmp/top3.out"
  cert_failures=$(sed -n 's/^c cert audits [0-9]*  audit_failures \([0-9]*\).*/\1/p' "$tmp/top3.out")
  [ -n "$cert_failures" ] && [ "$cert_failures" -ge 1 ] && break
  sleep 0.2
done
if [ -z "$cert_failures" ] || [ "$cert_failures" -lt 1 ]; then
  echo "== ci FAILED: hqs top shows no certificate audit failure after the poison =="
  cat "$tmp/top3.out"
  exit 1
fi
kill -TERM "$serve3_pid"
serve3_status=0
wait "$serve3_pid" || serve3_status=$?
if [ "$serve3_status" != 0 ]; then
  echo "== ci FAILED: certifying daemon drain exited $serve3_status (want 0) =="
  cat "$tmp/serve3.log"
  exit 1
fi
# ... and in the durable event trail: the tombstone and the re-solve
grep -q '"ev":"cert_audit"' "$elog3" || {
  echo "== ci FAILED: event log has no cert_audit record =="
  cat "$elog3"
  exit 1
}
grep -q '"ev":"retry"' "$elog3" || {
  echo "== ci FAILED: event log shows no re-solve after the cert audit failure =="
  cat "$elog3"
  exit 1
}
echo "c cert gate: suite certified+verified, corruption refuted, isolation asserted, daemon recovery drilled"

echo "== ci OK (smoke verdict exit $status, memout exit $memout_status, traced exit $trace_status, sweep crash+resume verified, serve gate passed, distobs gate passed, cert gate passed, deepcheck gate passed) =="
