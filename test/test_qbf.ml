module M = Aig.Man
module P = Qbf.Prefix

let check = Alcotest.(check bool)

(* ------------------------------------------------------------ known QBFs *)

let mk_iff_formula () =
  let man = M.create () in
  let x = M.input man 0 and y = M.input man 1 in
  (man, M.mk_iff man x y)

let test_forall_exists_iff () =
  (* forall x exists y: x <-> y   -- true *)
  let man, f = mk_iff_formula () in
  check "true" true (Qbf.Solver.solve man f [ (P.Forall, [ 0 ]); (P.Exists, [ 1 ]) ])

let test_exists_forall_iff () =
  (* exists y forall x: x <-> y   -- false *)
  let man, f = mk_iff_formula () in
  check "false" false (Qbf.Solver.solve man f [ (P.Exists, [ 1 ]); (P.Forall, [ 0 ]) ])

let test_free_vars_existential () =
  (* matrix x & y with empty prefix: free vars are existential -> true *)
  let man = M.create () in
  let f = M.mk_and man (M.input man 0) (M.input man 1) in
  check "sat" true (Qbf.Solver.solve man f []);
  let g = M.mk_and man f (M.compl_ (M.input man 0)) in
  check "unsat" false (Qbf.Solver.solve man g [])

let test_constant_matrices () =
  let man = M.create () in
  check "true matrix" true (Qbf.Solver.solve man M.true_ [ (P.Forall, [ 0 ]) ]);
  check "false matrix" false (Qbf.Solver.solve man M.false_ [ (P.Exists, [ 0 ]) ])

let test_forall_tautology () =
  (* forall x y: (x | !x) & (y | x | !x) -- trivially collapses in the AIG;
     use a disguised tautology instead: (x|y) | (!x&!y) *)
  let man = M.create () in
  let x = M.input man 0 and y = M.input man 1 in
  let f = M.mk_or man (M.mk_or man x y) (M.mk_and man (M.compl_ x) (M.compl_ y)) in
  check "valid" true (Qbf.Solver.solve man f [ (P.Forall, [ 0; 1 ]) ]);
  let g = M.mk_or man x y in
  check "not valid" false (Qbf.Solver.solve man g [ (P.Forall, [ 0; 1 ]) ])

let test_three_level () =
  (* forall x exists y forall z: (x<->y) | (y<->z) is false:
     pick y=x; then need (x<->x)|(x<->z) = true. wait that's true.
     check with brute force instead of guessing *)
  let man = M.create () in
  let x = M.input man 0 and y = M.input man 1 and z = M.input man 2 in
  let f = M.mk_or man (M.mk_iff man x y) (M.mk_iff man y z) in
  let prefix = [ (P.Forall, [ 0 ]); (P.Exists, [ 1 ]); (P.Forall, [ 2 ]) ] in
  let expected = Qbf.Brute.solve man f prefix in
  check "matches brute" expected (Qbf.Solver.solve man f prefix)

(* ------------------------------------------------- randomized validation *)

(* random CNF over [vars] variables + random quantifier per var, random order *)
let qbf_gen_sized ~vars:(lo, hi) ~clauses:(cmin, cmax) ~width:(wmin, wmax) =
  QCheck.Gen.(
    int_range lo hi >>= fun n ->
    list_size (int_range cmin cmax)
      (list_size (int_range wmin wmax) (map2 (fun v s -> (v, s)) (int_bound (n - 1)) bool))
    >>= fun clauses ->
    list_repeat n bool >>= fun quants ->
    (* permutation of vars via sorting by random keys *)
    list_repeat n (int_bound 1000) >>= fun keys ->
    let order =
      List.mapi (fun i k -> (k, i)) keys
      |> List.sort (fun (k1, i1) (k2, i2) -> if k1 <> k2 then Int.compare k1 k2 else Int.compare i1 i2)
      |> List.map snd
    in
    return (n, clauses, quants, order))

let qbf_gen = qbf_gen_sized ~vars:(2, 6) ~clauses:(1, 20) ~width:(1, 3)

(* wide matrices: dozens of root conjuncts sharing subgraphs, so one
   elimination cofactors many parts through the shared memo; clauses of 4-6
   literals keep about a fifth of the instances true and leave several
   eliminations per solve *)
let wide_qbf_gen = qbf_gen_sized ~vars:(8, 12) ~clauses:(20, 60) ~width:(4, 6)

let qbf_print (n, clauses, quants, order) =
  Printf.sprintf "n=%d order=%s quants=%s clauses=%s" n
    (String.concat "," (List.map string_of_int order))
    (String.concat "" (List.map (fun q -> if q then "A" else "E") quants))
    (String.concat ";"
       (List.map
          (fun c ->
            String.concat ","
              (List.map (fun (v, s) -> string_of_int (if s then -(v + 1) else v + 1)) c))
          clauses))

let qbf_arb = QCheck.make ~print:qbf_print qbf_gen
let wide_qbf_arb = QCheck.make ~print:qbf_print wide_qbf_gen

let build_qbf (n, clauses, quants, order) =
  let man = M.create () in
  let lit (v, s) = M.apply_sign (M.input man v) ~neg:s in
  let matrix = M.mk_and_list man (List.map (fun c -> M.mk_or_list man (List.map lit c)) clauses) in
  let quant_arr = Array.of_list quants in
  let prefix = List.map (fun v -> ((if quant_arr.(v) then P.Forall else P.Exists), [ v ])) order in
  ignore n;
  (man, matrix, P.normalize prefix)

let prop_matches_brute ?(count = 300) ?(arb = qbf_arb) config name =
  QCheck.Test.make ~name ~count arb (fun inst ->
      let man, matrix, prefix = build_qbf inst in
      Qbf.Solver.solve ~config man matrix prefix = Qbf.Brute.solve man matrix prefix)

let prop_default = prop_matches_brute Qbf.Solver.default_config "solver matches brute force"

let prop_no_shortcut =
  prop_matches_brute
    { Qbf.Solver.default_config with sat_shortcut = false }
    "solver matches brute force (no SAT shortcut)"

let prop_no_unitpure =
  prop_matches_brute
    { Qbf.Solver.default_config with use_unitpure = false }
    "solver matches brute force (no unit/pure)"

let prop_wide_default =
  prop_matches_brute ~count:100 ~arb:wide_qbf_arb Qbf.Solver.default_config
    "wide matrices: solver matches brute force"

(* without unit/pure and the SAT shortcut every variable is quantified by
   elimination, on wide matrices whose root conjuncts localize ∃ *)
let prop_wide_eliminate_all =
  prop_matches_brute ~count:100 ~arb:wide_qbf_arb
    { Qbf.Solver.use_unitpure = false; sat_shortcut = false }
    "wide matrices: solver matches brute force (every variable eliminated)"

let prop_negation_flips =
  QCheck.Test.make ~name:"negating matrix and flipping quantifiers negates result" ~count:200
    qbf_arb (fun inst ->
      let man, matrix, prefix = build_qbf inst in
      let flipped =
        List.map (fun (q, vs) -> ((match q with P.Forall -> P.Exists | P.Exists -> P.Forall), vs)) prefix
      in
      (* ensure all vars are bound in both (free vars default to exists) *)
      let support = Hqs_util.Bitset.to_list (M.support man matrix) in
      let bound = P.variables prefix in
      QCheck.(
        List.for_all (fun v -> List.mem v bound) support
        ==> (Qbf.Solver.solve man matrix prefix
            = not (Qbf.Solver.solve man (M.compl_ matrix) flipped))))

(* ---------------------------------------------------------------- qdpll *)

let prop_qdpll_matches_brute =
  QCheck.Test.make ~name:"qdpll matches brute force" ~count:300 qbf_arb (fun inst ->
      let man, matrix, prefix = build_qbf inst in
      Qbf.Qdpll.solve man matrix prefix = Qbf.Brute.solve man matrix prefix)

let prop_qdpll_matches_elimination =
  QCheck.Test.make ~name:"qdpll agrees with the elimination solver" ~count:300 qbf_arb
    (fun inst ->
      let man, matrix, prefix = build_qbf inst in
      Qbf.Qdpll.solve man matrix prefix = Qbf.Solver.solve man matrix prefix)

let prop_qdpll_model_sound =
  (* on a true answer, substituting the reported choice functions into the
     matrix must leave a formula that holds for all universal assignments
     (checked by brute evaluation) *)
  QCheck.Test.make ~name:"qdpll choice functions are sound" ~count:200 qbf_arb (fun inst ->
      let man, matrix, prefix = build_qbf inst in
      let captured = ref None in
      let answer =
        Qbf.Qdpll.solve
          ~on_model:(fun mman defs -> captured := Some (mman, defs))
          man matrix prefix
      in
      if not answer then true
      else begin
        match !captured with
        | None -> false
        | Some (mman, defs) ->
            (* evaluate over every universal assignment *)
            let univs =
              List.concat_map
                (fun (q, vs) -> if q = P.Forall then vs else [])
                prefix
            in
            let n = List.length univs in
            let ok = ref true in
            for bits = 0 to (1 lsl n) - 1 do
              let uenv v =
                match List.find_index (fun u -> u = v) univs with
                | Some i -> bits land (1 lsl i) <> 0
                | None -> false
              in
              let env v =
                match List.assoc_opt v defs with
                | Some fn -> M.eval mman fn uenv
                | None -> uenv v
              in
              if not (M.eval man matrix env) then ok := false
            done;
            !ok
      end)

let test_qdpll_cnf_direct () =
  (* forall x exists y: (x | y) & (!x | !y)  -- y = !x, true *)
  let l = Sat.Lit.of_dimacs in
  let prefix = [ (P.Forall, [ 0 ]); (P.Exists, [ 1 ]) ] in
  check "sat" true
    (Qbf.Qdpll.solve_cnf ~prefix ~num_vars:2 [ [ l 1; l 2 ]; [ l (-1); l (-2) ] ]);
  (* exists y forall x: (x | y) & (!x | !y) -- false *)
  let prefix = [ (P.Exists, [ 1 ]); (P.Forall, [ 0 ]) ] in
  check "unsat" false
    (Qbf.Qdpll.solve_cnf ~prefix ~num_vars:2 [ [ l 1; l 2 ]; [ l (-1); l (-2) ] ])

let test_prefix_normalize () =
  let p = [ (P.Forall, []); (P.Forall, [ 1 ]); (P.Forall, [ 2 ]); (P.Exists, [ 3 ]) ] in
  check "merged" true (P.normalize p = [ (P.Forall, [ 1; 2 ]); (P.Exists, [ 3 ]) ]);
  check "restrict" true
    (P.restrict p ~keep:(fun v -> v <> 1) = [ (P.Forall, [ 2 ]); (P.Exists, [ 3 ]) ]);
  check "quant_of" true (P.quant_of p 3 = Some P.Exists);
  check "quant_of none" true (P.quant_of p 9 = None)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "qbf"
    [
      ( "known",
        [
          Alcotest.test_case "forall-exists iff" `Quick test_forall_exists_iff;
          Alcotest.test_case "exists-forall iff" `Quick test_exists_forall_iff;
          Alcotest.test_case "free vars" `Quick test_free_vars_existential;
          Alcotest.test_case "constant matrices" `Quick test_constant_matrices;
          Alcotest.test_case "forall tautology" `Quick test_forall_tautology;
          Alcotest.test_case "three level" `Quick test_three_level;
        ] );
      ( "random",
        qsuite
          [
            prop_default;
            prop_no_shortcut;
            prop_no_unitpure;
            prop_wide_default;
            prop_wide_eliminate_all;
            prop_negation_flips;
          ] );
      ( "qdpll",
        [ Alcotest.test_case "cnf interface" `Quick test_qdpll_cnf_direct ]
        @ qsuite [ prop_qdpll_matches_brute; prop_qdpll_matches_elimination; prop_qdpll_model_sound ]
      );
      (* quantifier-block operations of QDIMACS-style prefixes *)
      ("qdimacs", [ Alcotest.test_case "prefix ops" `Quick test_prefix_normalize ]);
    ]
