(* The degradation ladder: every fallback is exercised twice — once by
   deterministic fault injection (Chaos), once (where practical) by a
   genuine resource blowup against a real AIG node limit. *)

open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula
module Fam = Circuit.Families

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verdict_t =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (match v with Hqs.Sat -> "SAT" | Hqs.Unsat -> "UNSAT"))
    (fun a b ->
      match (a, b) with Hqs.Sat, Hqs.Sat | Hqs.Unsat, Hqs.Unsat -> true | _ -> false)

let degraded_mem label stats = List.mem label stats.Hqs.degraded
let restarts stats = int_of_float (Hqs.metric stats "hqs.restarts")

let chaos points = Chaos.create ~seed:42 ~points ()

(* x1, x2 universal; y1 depends on x1 only, y2 on x2 only. The deps are
   incomparable, so the solver must eliminate a universal, which drives
   it through the MaxSAT / elimination / QBF stages. Aligned is SAT, crossed
   (y1 tracking x2) is UNSAT. *)
let example1 ~crossed =
  let f = F.create () in
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:(Bitset.singleton 0);
  F.add_existential f 3 ~deps:(Bitset.singleton 1);
  let man = F.man f in
  let x1 = M.input man 0 and x2 = M.input man 1 in
  let y1 = M.input man 2 and y2 = M.input man 3 in
  F.set_matrix f
    (if crossed then M.mk_and man (M.mk_iff man y1 x2) (M.mk_iff man y2 x1)
     else M.mk_and man (M.mk_iff man y1 x1) (M.mk_iff man y2 x2));
  f

(* ------------------------------------------------------- injected faults *)

let test_injected_maxsat () =
  let config = { Hqs.default_config with chaos = chaos [ "maxsat.minset" ] } in
  let v, stats = Hqs.solve_formula ~config (example1 ~crossed:false) in
  Alcotest.check verdict_t "still sat" Hqs.Sat v;
  check "fell back to greedy" true (degraded_mem "maxsat.minset->greedy[injected]" stats);
  check_int "no restart" 0 (restarts stats);
  (* the verdict survives on the UNSAT side too *)
  let v, stats = Hqs.solve_formula ~config:{ config with chaos = chaos [ "maxsat.minset" ] }
      (example1 ~crossed:true) in
  Alcotest.check verdict_t "still unsat" Hqs.Unsat v;
  check "fell back to greedy" true (degraded_mem "maxsat.minset->greedy[injected]" stats)

let test_injected_qbf_elim () =
  let config = { Hqs.default_config with chaos = chaos [ "qbf.elim" ] } in
  let f0 = example1 ~crossed:false in
  let v, model, stats = Hqs.solve_formula_model ~config f0 in
  Alcotest.check verdict_t "still sat" Hqs.Sat v;
  check "fell back to search" true (degraded_mem "qbf.elim->search[injected]" stats);
  (* the model produced by the fallback back end must still certify *)
  (match model with
  | None -> Alcotest.fail "expected a model"
  | Some m -> (
      match Dqbf.Skolem.verify f0 m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "model rejected: %a" Dqbf.Skolem.pp_failure e));
  (* an acyclic UNSAT instance that reaches the QBF stage directly:
     y sees nothing but must equal a universal *)
  let g = F.create () in
  F.add_universal g 0;
  F.add_existential g 1 ~deps:Bitset.empty;
  F.set_matrix g (M.mk_iff (F.man g) (M.input (F.man g) 1) (M.input (F.man g) 0));
  let v, stats =
    Hqs.solve_formula ~config:{ config with chaos = chaos [ "qbf.elim" ] } g
  in
  Alcotest.check verdict_t "still unsat" Hqs.Unsat v;
  check "fell back to search" true (degraded_mem "qbf.elim->search[injected]" stats)

let test_injected_restart () =
  (* a fault at the universal-elimination step is not recoverable within
     the stage: it must trigger the bounded degraded restart *)
  let config = { Hqs.default_config with chaos = chaos [ "elim.universal" ] } in
  let v, stats = Hqs.solve_formula ~config (example1 ~crossed:false) in
  Alcotest.check verdict_t "still sat" Hqs.Sat v;
  check_int "one restart" 1 (restarts stats);
  check "injection recorded" true (degraded_mem "elim.universal->memout[injected]" stats);
  check "restart recorded" true (degraded_mem "solve->restart-degraded[node-limit]" stats);
  let v, stats =
    Hqs.solve_formula
      ~config:{ config with chaos = chaos [ "elim.universal" ] }
      (example1 ~crossed:true)
  in
  Alcotest.check verdict_t "still unsat" Hqs.Unsat v;
  check_int "one restart" 1 (restarts stats)

let test_injected_no_restart_propagates () =
  let config =
    {
      Hqs.default_config with
      chaos = chaos [ "elim.universal" ];
      restart_on_memout = false;
    }
  in
  Alcotest.check_raises "memout escapes" Budget.Out_of_memory_budget (fun () ->
      ignore (Hqs.solve_formula ~config (example1 ~crossed:false)))

(* ------------------------------------------------- genuine node limits *)

(* Acyclic instance: one existential depending on every universal, with
   the matrix y <-> xor(x0..x7). The prefix linearizes immediately, so
   the solve goes straight to the QBF back end; the elimination back end
   must copy the ~24-node cone into a fresh manager and blows a 10-node
   limit there, while the QDPLL fallback encodes to clauses and never
   allocates an AIG node. *)
let xor_chain_formula ~nu =
  let f = F.create () in
  for x = 0 to nu - 1 do
    F.add_universal f x
  done;
  F.add_existential f nu ~deps:(Bitset.of_list (List.init nu Fun.id));
  let man = F.man f in
  let xs = List.init nu (fun x -> M.input man x) in
  let parity = List.fold_left (fun acc x -> M.mk_xor man acc x) M.false_ xs in
  F.set_matrix f (M.mk_iff man (M.input man nu) parity);
  f

let test_real_qbf_elim_fallback () =
  let f = xor_chain_formula ~nu:8 in
  (* unit/pure probing cofactors the matrix and would hit the limit
     before the QBF stage; disable it to aim the blowup at qbf.elim *)
  let config = { Hqs.default_config with node_limit = Some 10; use_unitpure = false } in
  let v, stats = Hqs.solve_formula ~config f in
  Alcotest.check verdict_t "solved, not memout" Hqs.Sat v;
  check "elim fell back to search" true (degraded_mem "qbf.elim->search[node-limit]" stats);
  check_int "no restart needed" 0 (restarts stats)

(* Full Shannon expansion of x0^x1^y0^y1 over a given variable order:
   functionally the parity function, structurally a distinct ITE tree
   per order, so hashing cannot merge the variants but FRAIG can. *)
let xor4_variant man order =
  let rec expand parity = function
    | [] -> if parity then M.true_ else M.false_
    | v :: rest ->
        M.mk_ite man (M.input man v) (expand (not parity) rest) (expand parity rest)
  in
  expand false order

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (fun y -> y <> x) l)))
        l

(* y0 may see only x0 and y1 only x1, so the incomparable deps force a
   universal elimination; the matrix is a conjunction of all 24
   expansion orders of the same parity constraint, pure functional
   redundancy that elimination doubles but a FRAIG sweep collapses. *)
let redundant_parity_formula () =
  let f = F.create () in
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:(Bitset.singleton 0);
  F.add_existential f 3 ~deps:(Bitset.singleton 1);
  let man = F.man f in
  let variants = List.map (xor4_variant man) (permutations [ 0; 1; 2; 3 ]) in
  F.set_matrix f (M.mk_and_list man variants);
  f

let test_real_degraded_restart () =
  let f = redundant_parity_formula () in
  let cone = M.cone_size (F.man f) (F.matrix f) in
  check "matrix is genuinely redundant" true (cone > 100);
  (* headroom too small for eliminating a universal over the redundant
     matrix, ample once the restart's initial FRAIG sweep has collapsed
     the variants *)
  let node_limit = Some (cone + 32) in
  let config = { Hqs.default_config with node_limit } in
  (* without the restart the limit genuinely bites *)
  Alcotest.check_raises "memout without restart" Budget.Out_of_memory_budget (fun () ->
      ignore (Hqs.solve_formula ~config:{ config with restart_on_memout = false } f));
  (* with the restart (the default) the instance is solved, not Memout *)
  let v, stats = Hqs.solve_formula ~config f in
  Alcotest.check verdict_t "solved via restart" Hqs.Sat v;
  check_int "one restart" 1 (restarts stats);
  check "restart recorded" true (degraded_mem "solve->restart-degraded[node-limit]" stats)

let test_injected_fraig_initial () =
  (* the degraded restart squeezes the matrix with one FRAIG sweep before
     eliminating; a fault injected there skips the sweep, and the restart
     still solves. The restart's search back end never sweeps, so
     [fraig.sat_checks] tells whether the squeeze ran. *)
  let f = redundant_parity_formula () in
  let solve points = Hqs.solve_formula ~config:{ Hqs.default_config with chaos = chaos points } f in
  let v, stats = solve [ "elim.universal" ] in
  Alcotest.check verdict_t "sat" Hqs.Sat v;
  check_int "one restart" 1 (restarts stats);
  check "the squeeze ran" true (Hqs.metric stats "fraig.sat_checks" > 0.0);
  let v, stats = solve [ "elim.universal"; "fraig.initial" ] in
  Alcotest.check verdict_t "still sat" Hqs.Sat v;
  check_int "one restart" 1 (restarts stats);
  check "skipped the squeeze" true (degraded_mem "fraig.initial->skip[injected]" stats);
  check "no sweep" true (Hqs.metric stats "fraig.sat_checks" = 0.0)

(* ------------------------------------------------- degradations on spans *)

let test_chaos_surfaces_in_trace () =
  (* with tracing armed, an injected mid-elimination fault must show up
     as an annotated "degrade" instant event inside the span that was
     open when it fired — here the elimination-set selection *)
  let config = { Hqs.default_config with chaos = chaos [ "maxsat.minset" ] } in
  Obs.Trace.reset ();
  Obs.Trace.start ();
  let v, stats = Hqs.solve_formula ~config (example1 ~crossed:false) in
  Obs.Trace.stop ();
  Alcotest.check verdict_t "still sat" Hqs.Sat v;
  check "degradation recorded" true (degraded_mem "maxsat.minset->greedy[injected]" stats);
  let evs = Obs.Trace.events () in
  let attr name e =
    match List.assoc_opt name e.Obs.Trace.attrs with Some (Obs.Str s) -> Some s | _ -> None
  in
  let rec scan open_spans = function
    | [] -> Alcotest.fail "no degrade event in the trace"
    | e :: rest -> (
        match e.Obs.Trace.ph with
        | Obs.Trace.Begin -> scan (e.Obs.Trace.name :: open_spans) rest
        | Obs.Trace.End -> scan (List.tl open_spans) rest
        | Obs.Trace.Instant ->
            if String.equal e.Obs.Trace.name "degrade" then begin
              Alcotest.(check (option string))
                "annotated with the injection point" (Some "maxsat.minset") (attr "point" e);
              Alcotest.(check (option string)) "annotated as injected" (Some "injected")
                (attr "reason" e);
              check "fired inside the selection span" true
                (List.mem "elim.select" open_spans)
            end
            else scan open_spans rest)
  in
  scan [] evs

(* --------------------------------------------------- verdict invariance *)

let test_chaos_off_clean () =
  (* with chaos off and no limits hit, nothing degrades *)
  let v, stats = Hqs.solve_formula (example1 ~crossed:false) in
  Alcotest.check verdict_t "sat" Hqs.Sat v;
  check "no degradations" true (stats.Hqs.degraded = []);
  check_int "no restarts" 0 (restarts stats);
  let inst = Fam.pec_xor ~length:3 ~boxes:1 ~fault:false in
  let v, stats = Hqs.solve_pcnf inst.Fam.pcnf in
  Alcotest.check verdict_t "pec sat" Hqs.Sat v;
  check "no degradations" true (stats.Hqs.degraded = [])

let test_verdicts_stable_under_chaos () =
  (* arm every injection point; verdicts on examples-scale instances
     must match the chaos-off run *)
  List.iter
    (fun fault ->
      let inst = Fam.pec_xor ~length:3 ~boxes:1 ~fault in
      let baseline, _ = Hqs.solve_pcnf inst.Fam.pcnf in
      let config = { Hqs.default_config with chaos = Chaos.create ~seed:7 ~points:[] () } in
      let v, stats = Hqs.solve_pcnf ~config inst.Fam.pcnf in
      Alcotest.check verdict_t "same verdict under chaos" baseline v;
      check "chaos actually fired" true (stats.Hqs.degraded <> []))
    [ false; true ]

let test_fraig_deterministic () =
  (* the back end sweeps this instance once and spends the sweep's whole
     propagation bound; a bound on solver work, unlike a wall-clock box,
     gives the same sweep on every run *)
  let inst = Fam.pec_xor ~length:15 ~boxes:3 ~fault:false in
  let counters () =
    let v, stats = Hqs.solve_pcnf inst.Fam.pcnf in
    Alcotest.check verdict_t "sat" Hqs.Sat v;
    List.map (Hqs.metric stats) [ "fraig.sat_checks"; "fraig.merges"; "aig.nodes_alloc" ]
  in
  let first = counters () in
  check "the sweep ran" true (List.hd first > 0.0);
  Alcotest.(check (list (float 0.0))) "same counters" first (counters ())

let () =
  Alcotest.run "degrade"
    [
      ( "injected",
        [
          Alcotest.test_case "maxsat -> greedy" `Quick test_injected_maxsat;
          Alcotest.test_case "qbf elim -> search" `Quick test_injected_qbf_elim;
          Alcotest.test_case "mid-elim -> restart" `Quick test_injected_restart;
          Alcotest.test_case "no-restart propagates" `Quick test_injected_no_restart_propagates;
          Alcotest.test_case "fraig.initial -> skip" `Quick test_injected_fraig_initial;
        ] );
      ( "real limits",
        [
          Alcotest.test_case "qbf elim node limit" `Quick test_real_qbf_elim_fallback;
          Alcotest.test_case "degraded restart" `Quick test_real_degraded_restart;
        ] );
      ( "tracing",
        [ Alcotest.test_case "chaos surfaces on the open span" `Quick test_chaos_surfaces_in_trace ] );
      ( "invariance",
        [
          Alcotest.test_case "chaos off is clean" `Quick test_chaos_off_clean;
          Alcotest.test_case "verdicts stable under chaos" `Slow test_verdicts_stable_under_chaos;
          Alcotest.test_case "fraig sweep is deterministic" `Slow test_fraig_deterministic;
        ] );
    ]
