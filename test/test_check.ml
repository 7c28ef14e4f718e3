(* The auditor is only trustworthy if it actually trips: every test here
   seeds a specific corruption through the Aig.Man.Internal backdoor (or
   builds an inconsistent structure directly) and asserts the matching
   validator raises, next to a control showing the uncorrupted structure
   passes. *)

open Hqs_util
module M = Aig.Man
module I = Aig.Man.Internal
module F = Dqbf.Formula

let check = Alcotest.(check bool)

let trips f =
  match f () with () -> false | (exception Check.Violation _) -> true

let violation_structure f =
  match f () with
  | () -> None
  | exception Check.Violation v -> Some v.Check.structure

(* \forall x0 x1, \exists y2(x0) y3(x1):  (y2 <-> x0) /\ (y3 <-> x1),
   the classic incomparable-dependency SAT instance *)
let sample_formula () =
  let f = F.create () in
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:(Bitset.of_list [ 0 ]);
  F.add_existential f 3 ~deps:(Bitset.of_list [ 1 ]);
  let man = F.man f in
  let m1 = M.mk_iff man (M.input man 2) (M.input man 0) in
  let m2 = M.mk_iff man (M.input man 3) (M.input man 1) in
  F.set_matrix f (M.mk_and man m1 m2);
  f

let stage = Check.Post_elimination

(* ------------------------------------------------------------- manager *)

let test_clean_manager () =
  let f = sample_formula () in
  Check.audit_man ~stage (F.man f);
  Check.audit_formula ~stage ~level:Check.Full f;
  check "clean formula passes the deep audit" true true

let find_and man =
  let rec go n = if M.is_and man (2 * n) then n else go (n + 1) in
  go 1

let test_mutated_fanin () =
  let f = sample_formula () in
  let man = F.man f in
  let n = find_and man in
  (* point the node at itself: breaks topological acyclicity *)
  I.set_fanin man ~node:n ~f0:(2 * n) ~f1:((2 * n) + 1);
  check "forward fanin trips" true (trips (fun () -> Check.audit_man ~stage man));
  check "structure is aig-manager" (Some "aig-manager" = violation_structure (fun () -> Check.audit_man ~stage man)) true

let test_poisoned_strash () =
  let f = sample_formula () in
  let man = F.man f in
  (* a binding whose target's fanins do not match the key *)
  I.strash_add man 3 5 1;
  check "poisoned entry trips" true (trips (fun () -> Check.audit_man ~stage man))

let test_dangling_strash () =
  let f = sample_formula () in
  let man = F.man f in
  I.strash_add man 2 4 9999;
  check "out-of-range entry trips" true (trips (fun () -> Check.audit_man ~stage man))

let test_removed_strash_key () =
  let f = sample_formula () in
  let man = F.man f in
  let n = find_and man in
  let a = I.raw_fanin0 man n and b = I.raw_fanin1 man n in
  I.strash_remove man a b;
  check "AND without its hash key trips" true (trips (fun () -> Check.audit_man ~stage man))

let test_shadowed_strash_key () =
  let f = sample_formula () in
  let man = F.man f in
  let n = find_and man in
  let a = I.raw_fanin0 man n and b = I.raw_fanin1 man n in
  let bogus = M.num_nodes man - 1 in
  (* a second binding under the real key: lookups now find the bogus node *)
  I.strash_add man a b bogus;
  let bound = ref [] in
  I.strash_iter man (fun a' b' node -> if a' = a && b' = b then bound := node :: !bound);
  check "strash_iter reports both bindings" true
    (List.equal Int.equal (List.sort Int.compare !bound) (List.sort Int.compare [ n; bogus ]));
  check "shadowing entry trips" true (trips (fun () -> Check.audit_man ~stage man))

let test_input_bijectivity () =
  let f = sample_formula () in
  let man = F.man f in
  (* relabel the input node of variable 1 as variable 0: two nodes now
     claim label 0 and the registry can agree with at most one of them *)
  let n1 = M.node_of (M.input man 1) in
  I.set_fanin man ~node:n1 ~f0:(-1) ~f1:0;
  check "input relabelling trips" true (trips (fun () -> Check.audit_man ~stage man))

(* ------------------------------------------------------------- formula *)

let test_dependency_widening () =
  let f = sample_formula () in
  (* variable 7 is not universal: Cheap already refuses the widened set *)
  F.set_deps f 2 (Bitset.of_list [ 0; 7 ]);
  check "widened dependency set trips at Cheap" true
    (trips (fun () -> Check.audit_formula ~stage ~level:Check.Cheap f));
  check "structure is dqbf-formula"
    (Some "dqbf-formula"
    = violation_structure (fun () -> Check.audit_formula ~stage ~level:Check.Cheap f))
    true

let test_unquantified_support () =
  let f = sample_formula () in
  let man = F.man f in
  (* conjoin a fresh never-quantified input into the matrix *)
  F.set_matrix f (M.mk_and man (F.matrix f) (M.input man 9));
  check "Cheap misses unquantified support" false
    (trips (fun () -> Check.audit_formula ~stage ~level:Check.Cheap f));
  check "Full catches unquantified support" true
    (trips (fun () -> Check.audit_formula ~stage ~level:Check.Full f))

let test_audit_stage_levels () =
  let f = sample_formula () in
  F.set_deps f 2 (Bitset.of_list [ 0; 7 ]);
  Check.audit_stage ~level:Check.Off stage f;
  check "Off audits nothing even when corrupted" true true;
  check "Cheap through audit_stage trips" true
    (trips (fun () -> Check.audit_stage ~level:Check.Cheap stage f))

(* --------------------------------------------------------------- queue *)

let test_queue () =
  let f = sample_formula () in
  Check.audit_queue ~stage f [ 0; 1 ];
  (* stale entries for eliminated (non-universal) variables are legal *)
  Check.audit_queue ~stage f [ 0; 2; 2; 1 ];
  check "well-formed queues pass" true true;
  check "out-of-range variable trips" true
    (trips (fun () -> Check.audit_queue ~stage f [ 0; 99 ]));
  check "universal queued twice trips" true
    (trips (fun () -> Check.audit_queue ~stage f [ 0; 1; 0 ]))

(* -------------------------------------------------------------- prefix *)

let linear_formula () =
  (* \forall x0, \exists y1(x0): linearly orderable as-is *)
  let f = F.create () in
  F.add_universal f 0;
  F.add_existential f 1 ~deps:(Bitset.of_list [ 0 ]);
  let man = F.man f in
  F.set_matrix f (M.mk_iff man (M.input man 1) (M.input man 0));
  f

(* -------------------------------------------------------------- skolem *)

let test_skolem_model () =
  let f = linear_formula () in
  let good = Dqbf.Skolem.create () in
  Dqbf.Skolem.define good 1 (M.input (Dqbf.Skolem.man good) 0);
  Check.audit_model ~stage:Check.Post_solve f good;
  check "correct witness certifies" true true;
  (* s_y = ~x0 falsifies the matrix: Not_tautology *)
  let wrong = Dqbf.Skolem.create () in
  Dqbf.Skolem.define wrong 1 (M.compl_ (M.input (Dqbf.Skolem.man wrong) 0));
  check "wrong witness trips" true
    (trips (fun () -> Check.audit_model ~stage:Check.Post_solve f wrong));
  check "structure is skolem-model"
    (Some "skolem-model"
    = violation_structure (fun () -> Check.audit_model ~stage:Check.Post_solve f wrong))
    true;
  (* correct function, illegal support: y1 must not read x2 *)
  let f2 = F.create () in
  F.add_universal f2 0;
  F.add_universal f2 2;
  F.add_existential f2 1 ~deps:(Bitset.of_list [ 0 ]);
  let man2 = F.man f2 in
  F.set_matrix f2 (M.mk_iff man2 (M.input man2 1) (M.input man2 0));
  let smuggled = Dqbf.Skolem.create () in
  let sman = Dqbf.Skolem.man smuggled in
  Dqbf.Skolem.define smuggled 1 (M.mk_xor sman (M.input sman 0) (M.input sman 2));
  check "out-of-dependency support trips" true
    (trips (fun () -> Check.audit_model ~stage:Check.Post_solve f2 smuggled))

(* ---------------------------------------------- end-to-end through Hqs *)

let full_config = { Hqs.default_config with check_level = Check.Full }

let verdict_is expected v =
  match (expected, v) with
  | Hqs.Sat, Hqs.Sat | Hqs.Unsat, Hqs.Unsat -> true
  | _ -> false

let test_solve_audited () =
  let verdict, _ = Hqs.solve_formula ~config:full_config (sample_formula ()) in
  check "audited solve: SAT instance" true (verdict_is Hqs.Sat verdict);
  (* \forall x \exists y(): y <-> x is unsatisfiable without seeing x *)
  let f = F.create () in
  F.add_universal f 0;
  F.add_existential f 1 ~deps:Bitset.empty;
  let man = F.man f in
  F.set_matrix f (M.mk_iff man (M.input man 1) (M.input man 0));
  let verdict, _ = Hqs.solve_formula ~config:full_config f in
  check "audited solve: UNSAT instance" true (verdict_is Hqs.Unsat verdict)

let test_solve_model_audited () =
  let pcnf =
    Dqbf.Pcnf.parse_string
      "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n"
  in
  let { Hqs.outcome; model; _ } = Hqs.run ~config:full_config ~model:true pcnf in
  check "audited pcnf model solve is SAT" true (outcome = Hqs.Verdict Hqs.Sat);
  check "model returned" true (model <> None);
  match model with
  | Some m ->
      check "certified model passes external verify" true
        (match Dqbf.Skolem.verify (Dqbf.Pcnf.to_formula pcnf) m with Ok () -> true | Error _ -> false)
  | None -> ()

let () =
  Alcotest.run "check"
    [
      ( "manager",
        [
          Alcotest.test_case "clean passes" `Quick test_clean_manager;
          Alcotest.test_case "mutated fanin" `Quick test_mutated_fanin;
          Alcotest.test_case "poisoned strash" `Quick test_poisoned_strash;
          Alcotest.test_case "dangling strash" `Quick test_dangling_strash;
          Alcotest.test_case "removed strash key" `Quick test_removed_strash_key;
          Alcotest.test_case "shadowed strash key" `Quick test_shadowed_strash_key;
          Alcotest.test_case "input bijectivity" `Quick test_input_bijectivity;
        ] );
      ( "formula",
        [
          Alcotest.test_case "dependency widening" `Quick test_dependency_widening;
          Alcotest.test_case "unquantified support" `Quick test_unquantified_support;
          Alcotest.test_case "levels" `Quick test_audit_stage_levels;
          Alcotest.test_case "queue" `Quick test_queue;
        ] );
      ("skolem", [ Alcotest.test_case "certification" `Quick test_skolem_model ]);
      ( "end-to-end",
        [
          Alcotest.test_case "solve under Full" `Quick test_solve_audited;
          Alcotest.test_case "model solve under Full" `Quick test_solve_model_audited;
        ] );
    ]
