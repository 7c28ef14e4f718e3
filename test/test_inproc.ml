(* Inprocessing engine (lib/inproc): hand-built cases for each rule and
   QCheck properties tying the engine to the reference expansion solver,
   the witness auditor and the Henkin-legality contract of gates. *)

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

(* u1 leaves (u1 | y2 | y4) only once y2 <-> y3 merges: the
   representative y2 keeps the intersection {u0} of the two dependency
   sets, and the closing simplify must revisit the clause over y2 *)
let test_merge_then_reduce () =
  let p =
    pcnf ~num_vars:5 ~univs:[ 0; 1 ]
      ~exists:[ (2, [ 0; 1 ]); (3, [ 0 ]); (4, [ 0 ]) ]
      ~clauses:[ [ 3; -4 ]; [ -3; 4 ]; [ 2; 3; 5 ] ]
  in
  match Inproc.run (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "satisfiable"
  | Inproc.Simplified res ->
      check_int "one merge" 1 res.Inproc.stats.Inproc.scc_merges;
      check "u1 reduced" true
        (List.exists
           (function
             | Inproc.Reduced { dropped; _ } -> List.map L.to_dimacs dropped = [ 2 ] | _ -> false)
           res.Inproc.steps);
      check "(y2 | y4) left" true
        (List.map (List.map L.to_dimacs) res.Inproc.clauses = [ [ 3; 5 ] ])

(* (a | b) strengthens (a | -b) into the unit (a), which then
   strengthens (-a | c | e): the closing simplify must revisit the
   strengthened clauses and propagate a *)
let test_strengthened_unit_propagates () =
  let p =
    pcnf ~num_vars:4 ~univs:[] ~exists:[]
      ~clauses:[ [ 1; 2 ]; [ 1; -2 ]; [ -1; 3; 4 ] ]
  in
  match Inproc.run (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "satisfiable"
  | Inproc.Simplified res ->
      check "a propagated" true
        (List.mem (Inproc.Unit (L.of_dimacs 1)) res.Inproc.steps);
      check "(c | e) left" true
        (List.map (List.map L.to_dimacs) res.Inproc.clauses = [ [ 3; 4 ] ])

(* gate detection: the engine's gates and the clauses it leaves behind *)
let run_gates ?(config = Inproc.config_of_mode Inproc.On) p =
  match Inproc.run ~config ~gates:true (problem_of_pcnf p) with
  | Inproc.Unsat -> Alcotest.fail "satisfiable"
  | Inproc.Simplified res ->
      Check.audit_inproc ~level:Check.Full p (Inproc.Simplified res);
      res

(* g (var 3) = a & b (vars 1, 2), used in (g | x) *)
let and_gate_pcnf =
  pcnf ~num_vars:4 ~univs:[ 0 ]
    ~exists:[ (1, [ 0 ]); (2, [ 0 ]); (3, [ 0 ]) ]
    ~clauses:[ [ -4; 2 ]; [ -4; 3 ]; [ 4; -2; -3 ]; [ 4; 1 ] ]

let test_gate_and_found () =
  let res = run_gates and_gate_pcnf in
  match res.Inproc.gates with
  | [ { Inproc.out_var = 3; out_neg = false; fn = Inproc.G_and (a, b); def_clauses } ] ->
      check "inputs a and b" true (List.sort Int.compare [ a; b ] = [ L.of_var 1; L.of_var 2 ]);
      check_int "three defining clauses" 3 (List.length def_clauses);
      check "only the use clause is left" true
        (res.Inproc.clauses = [ List.map L.of_dimacs [ 1; 4 ] ])
  | gates -> Alcotest.failf "expected one AND gate on g, got %d gates" (List.length gates)

let test_gate_xor_found () =
  (* g = a ^ b, where a and b depend on nothing, so only g may be the
     output *)
  let p =
    pcnf ~num_vars:4 ~univs:[ 0 ]
      ~exists:[ (1, []); (2, []); (3, [ 0 ]) ]
      ~clauses:[ [ -4; 2; 3 ]; [ -4; -2; -3 ]; [ 4; -2; 3 ]; [ 4; 2; -3 ]; [ 4; 1 ] ]
  in
  let res = run_gates p in
  match res.Inproc.gates with
  | [ { Inproc.out_var = 3; fn = Inproc.G_xor _; def_clauses; _ } ] ->
      check_int "four defining clauses" 4 (List.length def_clauses);
      check_int "only the use clause is left" 1 (List.length res.Inproc.clauses)
  | gates -> Alcotest.failf "expected one XOR gate on g, got %d gates" (List.length gates)

let test_gate_illegal_input_rejected () =
  (* g (deps {x}) = x & a, but a depends on {x, x'}: substituting g would
     let its Skolem function read x' *)
  let p =
    pcnf ~num_vars:4 ~univs:[ 0; 1 ]
      ~exists:[ (2, [ 0 ]); (3, [ 0; 1 ]) ]
      ~clauses:[ [ -3; 1 ]; [ -3; 4 ]; [ 3; -1; -4 ] ]
  in
  let res = run_gates p in
  check_int "no gate" 0 (List.length res.Inproc.gates);
  check_int "clauses kept" 3 (List.length res.Inproc.clauses)

let test_gate_cycle_rejected () =
  (* exactly one of p, q, r: each is the NOR of the other two, a cycle of
     candidates of which none may be substituted *)
  let p =
    pcnf ~num_vars:4 ~univs:[ 0 ]
      ~exists:[ (1, [ 0 ]); (2, [ 0 ]); (3, [ 0 ]) ]
      ~clauses:[ [ 2; 3; 4 ]; [ -2; -3 ]; [ -2; -4 ]; [ -3; -4 ] ]
  in
  let res = run_gates p in
  check_int "no gate" 0 (List.length res.Inproc.gates);
  check_int "clauses kept" 4 (List.length res.Inproc.clauses)

let test_seeded_illegal_gate_trips_audit () =
  let res = run_gates and_gate_pcnf in
  let trips name bad =
    match Check.audit_inproc ~level:Check.Cheap and_gate_pcnf (Inproc.Simplified bad) with
    | () -> Alcotest.failf "audit accepted %s" name
    | exception Check.Violation _ -> ()
  in
  (* the output no longer depends on x, its inputs still do *)
  trips "an input outside the output's dependency set"
    {
      res with
      Inproc.deps =
        List.map (fun (y, d) -> if y = 3 then (y, Bitset.empty) else (y, d)) res.Inproc.deps;
    };
  trips "a gate missing a defining clause"
    {
      res with
      Inproc.gates =
        List.map
          (fun (g : Inproc.gate) -> { g with Inproc.def_clauses = List.tl g.Inproc.def_clauses })
          res.Inproc.gates;
    };
  trips "a gate defined twice" { res with Inproc.gates = res.Inproc.gates @ res.Inproc.gates };
  (* the formula is built without the defining clauses, so an extra one
     would be lost *)
  trips "a gate with a clause outside its definition"
    {
      res with
      Inproc.gates =
        List.map
          (fun (g : Inproc.gate) ->
            {
              g with
              Inproc.def_clauses = g.Inproc.def_clauses @ [ [ L.of_dimacs 1; L.of_dimacs 2 ] ];
            })
          res.Inproc.gates;
    }

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

(* [instance_gen] plus one to three planted Tseitin definitions
   o = a & b or o = a ^ b, with random signs, each on a fresh existential
   over two earlier variables and used in one more clause. The output
   depends on every universal or on a random subset, so
   both legal and illegal gates occur, and chains of them; random clauses
   alone almost never contain a gate. *)
let gated_instance_arb =
  let gen =
    QCheck.Gen.(
      instance_gen ~max_clauses:3 ~min_width:2 >>= fun inst ->
      int_range 1 3 >>= fun k ->
      let full = (1 lsl inst.nu) - 1 in
      let neg (v, s) = (v, not s) in
      let rec plant i masks clauses =
        if i = k then
          return
            {
              inst with
              ne = inst.ne + k;
              dep_masks = inst.dep_masks @ List.rev masks;
              clauses = inst.clauses @ clauses;
            }
        else
          let n = inst.nu + inst.ne + i in
          let lit = pair (int_bound (n - 1)) bool in
          frequency [ (1, return full); (1, int_bound full) ] >>= fun mask ->
          triple lit lit bool >>= fun (a, b, is_xor) ->
          pair bool lit >>= fun (so, use) ->
          let o = (n, so) in
          let defs =
            if is_xor then
              [ [ neg o; a; b ]; [ neg o; neg a; neg b ]; [ o; neg a; b ]; [ o; a; neg b ] ]
            else [ [ neg o; a ]; [ neg o; b ]; [ o; neg a; neg b ] ]
          in
          plant (i + 1) (mask :: masks) (clauses @ defs @ [ [ o; use ] ])
      in
      plant 0 [] [])
  in
  QCheck.make ~print:instance_print gen

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

(* the clause set a result stands for: the survivors plus the gates'
   defining clauses *)
let pcnf_of_result (p : Pcnf.t) (res : Inproc.result) =
  pcnf ~num_vars:p.Pcnf.num_vars
    ~univs:(Bitset.to_list res.Inproc.univs)
    ~exists:(List.map (fun (y, d) -> (y, Bitset.to_list d)) res.Inproc.deps)
    ~clauses:
      (List.map (List.map L.to_dimacs)
         (res.Inproc.clauses
         @ List.concat_map (fun (g : Inproc.gate) -> g.Inproc.def_clauses) res.Inproc.gates))

(* the outcome passes the Full auditor and, against the reference
   expansion solver, keeps the verdict of [p] *)
let judged p =
  let reference = Dqbf.Reference.by_expansion (Pcnf.to_formula p) in
  fun outcome ->
    Check.audit_inproc ~level:Check.Full p outcome;
    match outcome with
    | Inproc.Unsat -> reference = false
    | Inproc.Simplified res ->
        Dqbf.Reference.by_expansion (Pcnf.to_formula (pcnf_of_result p res)) = reference

(* the engine, gate detection included, agrees with the reference
   expansion solver, and every witness and gate it emits survives the
   Full auditor; so does the analyzer's gate-free run from the Pcnf *)
let prop_engine_preserves_truth =
  QCheck.Test.make ~count:300 ~name:"inproc on keeps truth and passes audit"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let judged = judged p in
      judged (Dqbf.Preprocess.run_inproc ~mode:Inproc.On p)
      && judged (Inproc.run ~gates:true (problem_of_pcnf p)))

(* the same on instances with planted definitions, where gates are
   actually found *)
let prop_gates_preserve_truth =
  QCheck.Test.make ~count:1000 ~name:"engine gates preserve truth and pass audit"
    gated_instance_arb (fun inst ->
      let p = to_pcnf inst in
      judged p (Inproc.run ~gates:true (problem_of_pcnf p)))

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
      solve Inproc.Off = solve Inproc.On)

(* every rule is sound on its own: no rule leans on another having run
   first. Each config switches one rule on over the Off rule set. *)
let single_rule_configs =
  let none = { (Inproc.config_of_mode Inproc.Off) with Inproc.max_rounds = 50 } in
  [
    { none with Inproc.unit_propagation = true };
    { none with Inproc.universal_reduction = true };
    { none with Inproc.equivalences = true };
    { none with Inproc.subsumption = true; self_subsumption = true };
  ]

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
    max_rounds = 50;
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

(* all rules, subsumption alone, self-subsumption alone *)
let closure_configs =
  [
    Inproc.config_of_mode Inproc.On;
    { subsumption_only with Inproc.self_subsumption = false };
    { subsumption_only with Inproc.subsumption = false };
  ]

let subsumes c d = List.for_all (fun l -> List.mem l d) c

let strengthens c d =
  List.exists
    (fun l -> List.mem (L.neg l) d && List.for_all (fun k -> k = l || List.mem k d) c)
    c

(* the fixpoint is closed under the rules [config] switches on: no
   surviving clause subsumes another or strengthens it by
   self-subsuming resolution, checked by brute force over the pairs. A
   run that stopped at [max_rounds] is no fixpoint and passes. *)
let closed (config : Inproc.config) = function
  | Inproc.Unsat -> true
  | Inproc.Simplified res when res.Inproc.stats.Inproc.rounds >= config.Inproc.max_rounds -> true
  | Inproc.Simplified res ->
      let cs = List.mapi (fun i c -> (i, c)) res.Inproc.clauses in
      List.for_all
        (fun (i, c) ->
          List.for_all
            (fun (j, d) ->
              i = j
              || (not (config.Inproc.subsumption && subsumes c d))
                 && not (config.Inproc.self_subsumption && strengthens c d))
            cs)
        cs

let prop_fixpoint_closed =
  QCheck.Test.make ~count:300 ~name:"fixpoint has no (self-)subsumption" wide_instance_arb
    (fun inst ->
      let p = problem_of_pcnf (to_pcnf inst) in
      List.for_all (fun config -> closed config (Inproc.run ~config p)) closure_configs)

(* the result is a fixpoint of normalization: every surviving clause
   has its literals over strictly ascending variables (sorted, no
   duplicate, no tautology), is no unit, holds only variables still in
   the prefix (none assigned or merged away) and no universal literal
   that universal reduction would drop *)
let normalized (res : Inproc.result) =
  let deps v = List.assoc_opt v res.Inproc.deps in
  let in_prefix v = Bitset.mem v res.Inproc.univs || Option.is_some (deps v) in
  let needed c u =
    List.exists (fun k -> match deps (L.var k) with Some d -> Bitset.mem u d | None -> false) c
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> L.var a < L.var b && ascending rest
    | [ _ ] | [] -> true
  in
  List.for_all
    (fun c ->
      ascending c
      && List.compare_length_with c 1 > 0
      && List.for_all
           (fun l ->
             let v = L.var l in
             in_prefix v && ((not (Bitset.mem v res.Inproc.univs)) || needed c v))
           c)
    res.Inproc.clauses

let prop_normalized =
  QCheck.Test.make ~count:500 ~name:"result is a normalization fixpoint"
    (QCheck.oneof [ instance_arb; gated_instance_arb ])
    (fun inst ->
      let p = problem_of_pcnf (to_pcnf inst) in
      List.for_all
        (fun gates ->
          match Inproc.run ~gates p with
          | Inproc.Unsat -> true
          | Inproc.Simplified res -> normalized res)
        [ false; true ])

(* A merge in round 2 rewrites (1|3|4) into (1|2|4), which the
   untouched (1|2) subsumes: round 1 strengthens (3|-2|-5) by (3|-2|5)
   into the binary (3|-2) that, with (-3|2), makes 2 <-> 3. Only a
   queue that takes the rewritten clause's neighbours finds it. *)
let test_queue_reaches_untouched_subsumer () =
  let p =
    pcnf ~num_vars:5 ~univs:[] ~exists:[]
      ~clauses:[ [ 1; 2 ]; [ 1; 3; 4 ]; [ -3; 2 ]; [ 3; -2; 5 ]; [ 3; -2; -5 ] ]
  in
  let config = Inproc.config_of_mode Inproc.On in
  let outcome = Inproc.run ~config (problem_of_pcnf p) in
  (match outcome with
  | Inproc.Unsat -> Alcotest.fail "satisfiable"
  | Inproc.Simplified res ->
      check_int "one merge" 1 res.Inproc.stats.Inproc.scc_merges;
      check "(1|2|4) subsumed" true
        (List.exists
           (function
             | Inproc.Subsumed { clause; _ } -> List.map L.to_dimacs clause = [ 1; 2; 4 ] | _ -> false)
           res.Inproc.steps));
  check "closed" true (closed config outcome)

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
          Alcotest.test_case "merge then reduce" `Quick test_merge_then_reduce;
          Alcotest.test_case "strengthened unit propagates" `Quick
            test_strengthened_unit_propagates;
          Alcotest.test_case "gate and found" `Quick test_gate_and_found;
          Alcotest.test_case "gate xor found" `Quick test_gate_xor_found;
          Alcotest.test_case "gate illegal input rejected" `Quick test_gate_illegal_input_rejected;
          Alcotest.test_case "gate cycle rejected" `Quick test_gate_cycle_rejected;
          Alcotest.test_case "seeded illegal gate trips audit" `Quick
            test_seeded_illegal_gate_trips_audit;
          Alcotest.test_case "queue reaches untouched subsumer" `Quick
            test_queue_reaches_untouched_subsumer;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_preserves_truth;
            prop_gates_preserve_truth;
            prop_each_rule_alone_preserves_truth;
            prop_solver_mode_agreement;
            prop_subsumption_shrinks;
            prop_fixpoint_closed;
            prop_scc_idempotent;
            prop_normalized;
          ] );
    ]
