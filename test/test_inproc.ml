(* Inprocessing engine (lib/inproc): hand-built cases for each rule and
   QCheck properties tying the engine to the reference expansion solver,
   the witness auditor and the Henkin-legality contract of BVE. *)

open Hqs_util
module Pcnf = Dqbf.Pcnf
module L = Sat.Lit

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pcnf ~num_vars ~univs ~exists ~clauses = { Pcnf.num_vars; univs; exists; clauses }

let problem_of_pcnf (p : Pcnf.t) =
  {
    Inproc.num_vars = p.Pcnf.num_vars;
    univs = Bitset.of_list p.Pcnf.univs;
    deps = List.map (fun (y, d) -> (y, Bitset.of_list d)) p.Pcnf.exists;
    clauses = List.map (List.map L.of_dimacs) p.Pcnf.clauses;
  }

(* ------------------------------------------------------------ unit cases *)

(* the committed CI fixture, inline: 2 <-> 3 merges, (2|4|-1) is subsumed *)
let test_fixture_shape () =
  let p =
    pcnf ~num_vars:4 ~univs:[ 0 ]
      ~exists:[ (1, [ 0 ]); (2, [ 0 ]); (3, [ 0 ]) ]
      ~clauses:[ [ 2; -3 ]; [ -2; 3 ]; [ 2; 4 ]; [ 2; 4; -1 ] ]
  in
  match Inproc.run (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "fixture is satisfiable"
  | Inproc.Simplified res ->
      check_int "one SCC merge" 1 res.Inproc.stats.Inproc.scc_merges;
      check "at least one subsumption" true (res.Inproc.stats.Inproc.subsumed >= 1);
      check_int "one clause left" 1 (List.length res.Inproc.clauses)

let test_universal_unit_refutes () =
  let p = pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 1 ] ] in
  check "unit over a universal is a refutation" true
    (match Inproc.run (problem_of_pcnf p) with
    | Inproc.Unsat -> true
    | Inproc.Simplified _ -> false)

let test_universal_equivalence_refutes () =
  (* x <-> x' for two universals: no Henkin model exists *)
  let p =
    pcnf ~num_vars:3 ~univs:[ 0; 1 ]
      ~exists:[ (2, [ 0; 1 ]) ]
      ~clauses:[ [ 1; -2 ]; [ -1; 2 ]; [ 3; 1 ]; [ -3; -1 ] ]
  in
  check "two universals in one SCC refute" true
    (match Inproc.run (problem_of_pcnf p) with
    | Inproc.Unsat -> true
    | Inproc.Simplified _ -> false)

let test_merge_intersects_deps () =
  (* y2 (deps {0}) and y3 (deps {1}) forced equal: survivor keeps the
     intersection, which is empty *)
  let p =
    pcnf ~num_vars:4 ~univs:[ 0; 1 ]
      ~exists:[ (2, [ 0 ]); (3, [ 1 ]) ]
      ~clauses:[ [ 3; -4 ]; [ -3; 4 ]; [ 3; 4; 1 ] ]
  in
  match Inproc.run (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "satisfiable"
  | Inproc.Simplified res ->
      check_int "one merge" 1 res.Inproc.stats.Inproc.scc_merges;
      check "survivor dependency set is the intersection" true
        (List.for_all (fun (_, d) -> Bitset.is_empty d) res.Inproc.deps)

let full_config = Inproc.config_of_mode Inproc.Full

let test_bve_eliminates () =
  (* y (var 1, deps {0}) in (y | x) and (!y | z): resolvent (x | z); z
     depends on x so elimination is Henkin-legal *)
  let p =
    pcnf ~num_vars:3 ~univs:[ 0 ]
      ~exists:[ (1, [ 0 ]); (2, [ 0 ]) ]
      ~clauses:[ [ 2; 1 ]; [ -2; 3 ] ]
  in
  match Inproc.run ~config:full_config (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "satisfiable"
  | Inproc.Simplified res ->
      check "y eliminated" true (res.Inproc.stats.Inproc.bve_eliminated >= 1);
      check "y gone from the prefix" true
        (not (List.exists (fun (v, _) -> v = 1) res.Inproc.deps))

let test_bve_illegal_dep_skipped () =
  (* y (var 1, deps {}) shares both its clauses with universal x: x not
     in D_y, so resolution on y would smuggle an x-dependency — must be
     skipped. z (var 2, deps {0}) in the same clauses IS legal to
     eliminate (its resolvent is a tautology). *)
  let p =
    pcnf ~num_vars:3 ~univs:[ 0 ]
      ~exists:[ (1, []); (2, [ 0 ]) ]
      ~clauses:[ [ 2; 1; 3 ]; [ -2; -1; -3 ] ]
  in
  match Inproc.run ~config:full_config (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "should not refute"
  | Inproc.Simplified res ->
      check "no Eliminated step on the dep-illegal variable" true
        (List.for_all
           (function Inproc.Eliminated { y; _ } -> y <> 1 | _ -> true)
           res.Inproc.steps)

(* -------------------------------------------------------------- QCheck *)

type instance = {
  nu : int;
  ne : int;
  dep_masks : int list;
  clauses : (int * bool) list list;
}

let instance_gen ~max_clauses ~min_width =
  QCheck.Gen.(
    int_range 1 3 >>= fun nu ->
    int_range 1 3 >>= fun ne ->
    list_repeat ne (int_bound ((1 lsl nu) - 1)) >>= fun dep_masks ->
    let n = nu + ne in
    list_size (int_range 1 max_clauses)
      (list_size (int_range min_width 3) (pair (int_bound (n - 1)) bool))
    >>= fun clauses -> return { nu; ne; dep_masks; clauses })

let instance_print { nu; ne; dep_masks; clauses } =
  Printf.sprintf "nu=%d ne=%d deps=[%s] clauses=%s" nu ne
    (String.concat ";" (List.map string_of_int dep_masks))
    (String.concat " "
       (List.map
          (fun c ->
            String.concat ","
              (List.map (fun (v, s) -> string_of_int (if s then -(v + 1) else v + 1)) c))
          clauses))

let instance_arb =
  QCheck.make ~print:instance_print (instance_gen ~max_clauses:12 ~min_width:1)

(* no unit clauses and fewer of them: about a third of these instances are
   satisfiable (a fifth of [instance_arb]'s), so a rule that wrongly
   strengthens a clause is caught far more often *)
let wide_instance_arb =
  QCheck.make ~print:instance_print (instance_gen ~max_clauses:10 ~min_width:2)

let to_pcnf { nu; ne; dep_masks; clauses } =
  pcnf ~num_vars:(nu + ne)
    ~univs:(List.init nu Fun.id)
    ~exists:
      (List.mapi
         (fun i mask ->
           (nu + i, List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init nu Fun.id)))
         dep_masks)
    ~clauses:
      (List.map (List.map (fun (v, s) -> if s then -(v + 1) else v + 1)) clauses)

(* the engine at Full strength agrees with the reference expansion
   solver, and every witness it emits survives the Full auditor *)
let prop_engine_preserves_truth =
  QCheck.Test.make ~count:300 ~name:"inproc full preserves truth and passes audit"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let reference = Dqbf.Reference.by_expansion (Pcnf.to_formula p) in
      match Dqbf.Preprocess.run_inproc ~mode:Inproc.Full p with
      | `Unsat ->
          Check.audit_inproc ~level:Check.Full p Inproc.Unsat;
          reference = false
      | `Done (simplified, res) ->
          Check.audit_inproc ~level:Check.Full p (Inproc.Simplified res);
          Dqbf.Reference.by_expansion (Pcnf.to_formula simplified) = reference)

(* end-to-end: the solver's verdict does not depend on the engine mode *)
let prop_solver_mode_agreement =
  QCheck.Test.make ~count:60 ~name:"solver verdicts agree across inproc modes"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let solve mode =
        let config =
          {
            Hqs.default_config with
            Hqs.check_level = Check.Full;
            preprocess =
              { Dqbf.Preprocess.default_config with Dqbf.Preprocess.inproc = mode };
          }
        in
        match Hqs.solve_pcnf ~config p with Hqs.Sat, _ -> true | Hqs.Unsat, _ -> false
      in
      solve Inproc.Off = solve Inproc.Full)

(* every rule is sound on its own: no rule leans on another having run
   first. Each config switches one rule on over the Off rule set. *)
let single_rule_configs =
  let none = { (Inproc.config_of_mode Inproc.Off) with Inproc.max_rounds = 50 } in
  [
    { none with Inproc.unit_propagation = true };
    { none with Inproc.universal_reduction = true };
    { none with Inproc.equivalences = true };
    { none with Inproc.subsumption = true; self_subsumption = true };
    { none with Inproc.probe = true };
    { none with Inproc.bve = true; bve_cap = full_config.Inproc.bve_cap };
  ]

let pcnf_of_result (p : Pcnf.t) (res : Inproc.result) =
  pcnf ~num_vars:p.Pcnf.num_vars
    ~univs:(Bitset.to_list res.Inproc.univs)
    ~exists:(List.map (fun (y, d) -> (y, Bitset.to_list d)) res.Inproc.deps)
    ~clauses:(List.map (List.map L.to_dimacs) res.Inproc.clauses)

let prop_each_rule_alone_preserves_truth =
  QCheck.Test.make ~count:300 ~name:"each engine rule alone preserves truth" wide_instance_arb
    (fun inst ->
      let p = to_pcnf inst in
      let reference = Dqbf.Reference.by_expansion (Pcnf.to_formula p) in
      List.for_all
        (fun config ->
          let outcome = Inproc.run ~config (problem_of_pcnf p) in
          Check.audit_inproc ~level:Check.Full p outcome;
          match outcome with
          | Inproc.Unsat -> reference = false
          | Inproc.Simplified res ->
              Dqbf.Reference.by_expansion (Pcnf.to_formula (pcnf_of_result p res)) = reference)
        single_rule_configs)

let subsumption_only =
  {
    Inproc.unit_propagation = false;
    universal_reduction = false;
    equivalences = false;
    subsumption = true;
    self_subsumption = true;
    probe = false;
    bve = false;
    max_rounds = 50;
    bve_cap = 0;
  }

let prop_subsumption_shrinks =
  QCheck.Test.make ~count:300 ~name:"subsumption never increases the clause count"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      match Inproc.run ~config:subsumption_only (problem_of_pcnf p) with
      | Inproc.Unsat -> true (* self-subsumption may derive the empty clause *)
      | Inproc.Simplified res ->
          let s = res.Inproc.stats in
          s.Inproc.clauses_after <= s.Inproc.clauses_before
          && List.length res.Inproc.clauses <= List.length p.Pcnf.clauses)

(* a second run over the engine's own output finds no further
   equivalences: SCC substitution is idempotent *)
let prop_scc_idempotent =
  QCheck.Test.make ~count:300 ~name:"SCC substitution is idempotent" instance_arb
    (fun inst ->
      let p = to_pcnf inst in
      match Inproc.run (problem_of_pcnf p) with
      | Inproc.Unsat -> true
      | Inproc.Simplified res -> (
          let again =
            {
              Inproc.num_vars = p.Pcnf.num_vars;
              univs = res.Inproc.univs;
              deps = res.Inproc.deps;
              clauses = res.Inproc.clauses;
            }
          in
          match Inproc.run again with
          | Inproc.Unsat -> false (* a fixpoint cannot newly refute *)
          | Inproc.Simplified res2 ->
              res2.Inproc.stats.Inproc.scc_merges = 0
              && res2.Inproc.stats.Inproc.subsumed = 0))

(* every Eliminated witness respects the randomly drawn Henkin prefix:
   its dependency snapshot never exceeds the declared set, and no
   clause it resolved mentions a universal outside that snapshot *)
let prop_bve_legality =
  QCheck.Test.make ~count:300 ~name:"BVE legality respects random dependency sets"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let declared = List.map (fun (y, d) -> (y, Bitset.of_list d)) p.Pcnf.exists in
      let univs = Bitset.of_list p.Pcnf.univs in
      match Inproc.run ~config:full_config (problem_of_pcnf p) with
      | Inproc.Unsat -> true
      | Inproc.Simplified res ->
          List.for_all
            (function
              | Inproc.Eliminated { y; dep_y; pos; neg } ->
                  let dep_set = Bitset.of_list dep_y in
                  (match List.assoc_opt y declared with
                  | None -> false
                  | Some d -> Bitset.subset dep_set d)
                  && List.for_all
                       (List.for_all (fun l ->
                            let v = L.var l in
                            v = y
                            || (not (Bitset.mem v univs))
                            || Bitset.mem v dep_set))
                       (pos @ neg)
              | _ -> true)
            res.Inproc.steps)

let () =
  Alcotest.run "inproc"
    [
      ( "rules",
        [
          Alcotest.test_case "fixture shape" `Quick test_fixture_shape;
          Alcotest.test_case "universal unit refutes" `Quick test_universal_unit_refutes;
          Alcotest.test_case "universal equivalence refutes" `Quick
            test_universal_equivalence_refutes;
          Alcotest.test_case "merge intersects deps" `Quick test_merge_intersects_deps;
          Alcotest.test_case "bve eliminates" `Quick test_bve_eliminates;
          Alcotest.test_case "bve illegal dep skipped" `Quick test_bve_illegal_dep_skipped;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_preserves_truth;
            prop_each_rule_alone_preserves_truth;
            prop_solver_mode_agreement;
            prop_subsumption_shrinks;
            prop_scc_idempotent;
            prop_bve_legality;
          ] );
    ]
