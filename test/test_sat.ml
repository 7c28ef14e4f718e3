open Hqs_util
module S = Sat.Solver
module L = Sat.Lit

let check = Alcotest.(check bool)

let result_t =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with S.Sat -> "SAT" | S.Unsat -> "UNSAT" | S.Unknown -> "UNKNOWN"))
    (fun a b ->
      match (a, b) with
      | S.Sat, S.Sat | S.Unsat, S.Unsat | S.Unknown, S.Unknown -> true
      | _ -> false)

(* literals from DIMACS-style ints *)
let l = L.of_dimacs
let clause solver ints = S.add_clause solver (List.map l ints)

let solve_ints clause_list =
  let s = S.create () in
  List.iter (clause s) clause_list;
  (S.solve s, s)

(* ------------------------------------------------------- basic behaviour *)

let test_empty_problem () =
  let s = S.create () in
  Alcotest.check result_t "empty problem is SAT" S.Sat (S.solve s)

let test_unit () =
  let r, s = solve_ints [ [ 1 ]; [ -2 ] ] in
  Alcotest.check result_t "sat" S.Sat r;
  check "x1 true" true (S.value s 0);
  check "x2 false" false (S.value s 1)

let test_contradiction () =
  let r, _ = solve_ints [ [ 1 ]; [ -1 ] ] in
  Alcotest.check result_t "unsat" S.Unsat r

let test_empty_clause () =
  let s = S.create () in
  S.add_clause s [];
  check "not ok" false (S.is_ok s);
  Alcotest.check result_t "unsat" S.Unsat (S.solve s)

let test_tautology_dropped () =
  let r, _ = solve_ints [ [ 1; -1 ]; [ 2 ] ] in
  Alcotest.check result_t "sat" S.Sat r

let test_propagation_chain () =
  (* x1, x1->x2, x2->x3, ..., forcing all true *)
  let n = 50 in
  let s = S.create () in
  clause s [ 1 ];
  for i = 1 to n - 1 do
    clause s [ -i; i + 1 ]
  done;
  Alcotest.check result_t "sat" S.Sat (S.solve s);
  for i = 0 to n - 1 do
    check (Printf.sprintf "x%d" i) true (S.value s i)
  done

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT. p_ij = pigeon i in hole j. *)
  let var i j = (i * 2) + j + 1 in
  let s = S.create () in
  for i = 0 to 2 do
    clause s [ var i 0; var i 1 ]
  done;
  for j = 0 to 1 do
    for i = 0 to 2 do
      for i' = i + 1 to 2 do
        clause s [ -var i j; -var i' j ]
      done
    done
  done;
  Alcotest.check result_t "php(3,2) unsat" S.Unsat (S.solve s)

let test_assumptions () =
  let s = S.create () in
  clause s [ 1; 2 ];
  clause s [ -1; 2 ];
  Alcotest.check result_t "free: sat" S.Sat (S.solve s);
  Alcotest.check result_t "assume -2: unsat" S.Unsat (S.solve ~assumptions:[ l (-2) ] s);
  Alcotest.check result_t "assume 2: sat" S.Sat (S.solve ~assumptions:[ l 2 ] s);
  (* solver still reusable *)
  Alcotest.check result_t "free again: sat" S.Sat (S.solve s)

let test_incremental () =
  let s = S.create () in
  clause s [ 1; 2 ];
  Alcotest.check result_t "sat" S.Sat (S.solve s);
  clause s [ -1 ];
  Alcotest.check result_t "still sat" S.Sat (S.solve s);
  check "x2 true" true (S.value s 1);
  clause s [ -2 ];
  Alcotest.check result_t "now unsat" S.Unsat (S.solve s);
  Alcotest.check result_t "stays unsat" S.Unsat (S.solve s)

let test_conflict_limit () =
  (* php(6,5) needs many conflicts; a limit of 1 must give Unknown *)
  let n = 6 in
  let var i j = (i * (n - 1)) + j + 1 in
  let s = S.create () in
  for i = 0 to n - 1 do
    clause s (List.init (n - 1) (fun j -> var i j))
  done;
  for j = 0 to n - 2 do
    for i = 0 to n - 1 do
      for i' = i + 1 to n - 1 do
        clause s [ -var i j; -var i' j ]
      done
    done
  done;
  Alcotest.check result_t "limited: unknown" S.Unknown (S.solve ~conflict_limit:1 s);
  Alcotest.check result_t "unlimited: unsat" S.Unsat (S.solve s)

let test_timeout_raises () =
  let n = 9 in
  let var i j = (i * (n - 1)) + j + 1 in
  let s = S.create () in
  for i = 0 to n - 1 do
    clause s (List.init (n - 1) (fun j -> var i j))
  done;
  for j = 0 to n - 2 do
    for i = 0 to n - 1 do
      for i' = i + 1 to n - 1 do
        clause s [ -var i j; -var i' j ]
      done
    done
  done;
  let budget = Budget.of_seconds 0.0 in
  Alcotest.check_raises "timeout" Budget.Timeout (fun () ->
      ignore (S.solve ~budget s))

(* --------------------------------------------------- model-based testing *)

(* brute-force: clauses over vars 0..n-1 as int lists (DIMACS-signed) *)
let brute_force n clauses =
  let rec try_assign a v =
    if v = n then
      List.for_all
        (fun cl -> List.exists (fun i -> if i > 0 then a.(i - 1) else not a.(-i - 1)) cl)
        clauses
    else begin
      a.(v) <- false;
      try_assign a (v + 1)
      || begin
           a.(v) <- true;
           try_assign a (v + 1)
         end
    end
  in
  try_assign (Array.make n false) 0

let eval_model model clauses =
  List.for_all
    (fun cl ->
      List.exists (fun i -> if i > 0 then model.(i - 1) else not model.(-i - 1)) cl)
    clauses

let cnf_gen =
  (* random CNF over <= 8 vars, clause width 1-4 *)
  QCheck.Gen.(
    let lit_g n = map2 (fun v s -> if s then v + 1 else -(v + 1)) (int_bound (n - 1)) bool in
    int_range 1 8 >>= fun n ->
    list_size (int_bound 30) (list_size (int_range 1 4) (lit_g n)) >>= fun clauses ->
    return (n, clauses))

let cnf_arb =
  QCheck.make
    ~print:(fun (n, cls) ->
      Printf.sprintf "n=%d %s" n
        (String.concat " ; "
           (List.map (fun cl -> String.concat "," (List.map string_of_int cl)) cls)))
    cnf_gen

let prop_agrees_with_brute_force =
  QCheck.Test.make ~name:"cdcl agrees with brute force" ~count:500 cnf_arb
    (fun (n, clauses) ->
      let s = S.create () in
      S.ensure_var s (n - 1);
      List.iter (clause s) clauses;
      let expected = brute_force n clauses in
      match S.solve s with
      | S.Sat -> expected && eval_model (S.model s) clauses
      | S.Unsat -> not expected
      | S.Unknown -> false)

let prop_assumptions_consistent =
  QCheck.Test.make ~name:"assumptions behave like unit clauses" ~count:200
    (QCheck.pair cnf_arb (QCheck.list_of_size (QCheck.Gen.int_bound 3) QCheck.bool))
    (fun ((n, clauses), signs) ->
      let assumptions = List.mapi (fun i s -> L.mk (i mod n) ~neg:s) signs in
      (* assumption-based solve must equal solving with those units added *)
      let s1 = S.create () in
      S.ensure_var s1 (n - 1);
      List.iter (clause s1) clauses;
      let r1 = S.solve ~assumptions s1 in
      let s2 = S.create () in
      S.ensure_var s2 (n - 1);
      List.iter (clause s2) clauses;
      List.iter (fun a -> S.add_clause s2 [ a ]) assumptions;
      let r2 = S.solve s2 in
      r1 = r2)

let prop_incremental_monotone =
  QCheck.Test.make ~name:"adding clauses never turns UNSAT into SAT" ~count:200
    (QCheck.pair cnf_arb cnf_arb) (fun ((n1, c1), (n2, c2)) ->
      let n = max n1 n2 in
      let s = S.create () in
      S.ensure_var s (n - 1);
      List.iter (clause s) c1;
      let r1 = S.solve s in
      List.iter (clause s) c2;
      let r2 = S.solve s in
      not (r1 = S.Unsat && r2 = S.Sat))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sat"
    [
      ( "basic",
        [
          Alcotest.test_case "empty problem" `Quick test_empty_problem;
          Alcotest.test_case "units" `Quick test_unit;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_pigeonhole_3_2;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "conflict limit" `Quick test_conflict_limit;
          Alcotest.test_case "timeout raises" `Quick test_timeout_raises;
        ] );
      ( "properties",
        qsuite
          [
            prop_agrees_with_brute_force;
            prop_assumptions_consistent;
            prop_incremental_monotone;
          ] );
    ]
