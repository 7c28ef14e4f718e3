open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

let check = Alcotest.(check bool)

let verdict_t =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (match v with Hqs.Sat -> "SAT" | Hqs.Unsat -> "UNSAT"))
    (fun a b ->
      match (a, b) with Hqs.Sat, Hqs.Sat | Hqs.Unsat, Hqs.Unsat -> true | _ -> false)

(* same random-instance machinery as the dqbf tests *)
type instance = {
  nu : int;
  ne : int;
  dep_masks : int list;
  clauses : (int * bool) list list;
}

let instance_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun nu ->
    int_range 1 3 >>= fun ne ->
    list_repeat ne (int_bound ((1 lsl nu) - 1)) >>= fun dep_masks ->
    let n = nu + ne in
    list_size (int_range 1 12) (list_size (int_range 1 3) (pair (int_bound (n - 1)) bool))
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

let instance_arb = QCheck.make ~print:instance_print instance_gen

let build { nu; ne = _; dep_masks; clauses } =
  let f = F.create () in
  for x = 0 to nu - 1 do
    F.add_universal f x
  done;
  List.iteri
    (fun i mask ->
      let deps =
        Bitset.of_list (List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init nu Fun.id))
      in
      F.add_existential f (nu + i) ~deps)
    dep_masks;
  let man = F.man f in
  let lit (v, s) = M.apply_sign (M.input man v) ~neg:s in
  F.set_matrix f
    (M.mk_and_list man (List.map (fun c -> M.mk_or_list man (List.map lit c)) clauses));
  f

let pcnf_of_instance inst =
  {
    Dqbf.Pcnf.num_vars = inst.nu + inst.ne;
    univs = List.init inst.nu Fun.id;
    exists =
      List.mapi
        (fun i mask ->
          ( inst.nu + i,
            List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init inst.nu Fun.id) ))
        inst.dep_masks;
    clauses = List.map (List.map (fun (v, s) -> if s then -(v + 1) else v + 1)) inst.clauses;
  }

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

(* -------------------------------------------------------------- known *)

let test_example1 () =
  let v, stats = Hqs.solve_formula (example1 ~crossed:false) in
  Alcotest.check verdict_t "aligned sat" Hqs.Sat v;
  check "eliminated a universal" true (Hqs.metric stats "elim.universal" >= 1.0);
  let v, _ = Hqs.solve_formula (example1 ~crossed:true) in
  Alcotest.check verdict_t "crossed unsat" Hqs.Unsat v

let test_input_not_mutated () =
  let f = example1 ~crossed:false in
  let before_univs = F.universals f in
  let _ = Hqs.solve_formula f in
  check "universals unchanged" true (Bitset.equal before_univs (F.universals f));
  (* solving twice gives the same verdict *)
  let v1, _ = Hqs.solve_formula f and v2, _ = Hqs.solve_formula f in
  check "deterministic" true (v1 = v2)

let test_timeout () =
  (* a somewhat larger instance with a 0-second budget must raise *)
  let f = example1 ~crossed:false in
  Alcotest.check_raises "timeout" Budget.Timeout (fun () ->
      ignore (Hqs.solve_formula ~budget:(Budget.of_seconds (-1.0)) f))

(* an expired budget ends the solve before preprocessing does any work:
   the inproc engine checks it at the top of every fixpoint round *)
let test_run_expired_budget () =
  let pcnf =
    Dqbf.Pcnf.parse_string
      "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n3 -1 4 0\n-3 1 4 0\n4 -2 -3 0\n-4 2 3 0\n"
  in
  let r = Hqs.run ~budget:(Budget.of_seconds (-1.0)) pcnf in
  check "timeout" true (r.Hqs.outcome = Hqs.Timeout);
  Alcotest.(check (float 0.0)) "no inproc round" 0.0 (Hqs.metric r.Hqs.stats "inproc.rounds")

let test_node_limit_memout () =
  let config = { Hqs.default_config with node_limit = Some 8 } in
  let f = example1 ~crossed:false in
  Alcotest.check_raises "memout" Budget.Out_of_memory_budget (fun () ->
      ignore (Hqs.solve_formula ~config f))

(* ------------------------------------------------------------- memout *)

(* a per-call gauge as the last call left it, also one that raised *)
let gauge name = Option.value ~default:0.0 (Obs.Metrics.find (Obs.Metrics.snapshot ()) name)

(* Acyclic instance: eight existentials y0..y7, each depending on all
   eight universals, under the matrix AND_i ((y_i xor x_i) | (y_i+1 & x_i+2))
   (indices mod 8). The prefix linearizes at once, so the solve goes
   straight to the acyclic phase, whose existential eliminations grow the
   64-node matrix to about 250 nodes. *)
let growing_formula () =
  let f = F.create () in
  for x = 0 to 7 do
    F.add_universal f x
  done;
  let deps = Bitset.of_list (List.init 8 Fun.id) in
  for y = 8 to 15 do
    F.add_existential f y ~deps
  done;
  let man = F.man f in
  let x i = M.input man (i mod 8) and y i = M.input man (8 + (i mod 8)) in
  let m = ref M.true_ in
  for i = 0 to 7 do
    let clause = M.mk_or man (M.mk_xor man (y i) (x i)) (M.mk_and man (y (i + 1)) (x (i + 2))) in
    m := M.mk_and man !m clause
  done;
  F.set_matrix f !m;
  f

let test_backend_memout () =
  let limit = 128 in
  let f = growing_formula () in
  check "the main loop fits under the limit" true (M.num_nodes (F.man f) < limit);
  let config = { Hqs.default_config with node_limit = Some limit } in
  Alcotest.check_raises "back-end blowup is a memout" Budget.Out_of_memory_budget (fun () ->
      ignore (Hqs.solve_formula ~config f));
  (* the per-call gauges keep what the raising call left: the peak is
     that of the one manager, which stood at the limit, and the time
     after linearization was counted *)
  check "peak nodes reach the limit" true (gauge "hqs.peak_nodes" >= float_of_int limit);
  check "back-end time counted" true (gauge "hqs.qbf_time_s" > 0.0)

(* Full Shannon expansion of x0^x1^y0^y1 over a given variable order:
   functionally the parity function, structurally a distinct ITE tree
   per order, so structural hashing cannot merge the variants. *)
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
   redundancy that elimination doubles. *)
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

let test_main_loop_memout () =
  (* the main loop is deterministic, so a node-limit memout there
     escapes on the first attempt *)
  let f = redundant_parity_formula () in
  let cone = M.cone_size (F.man f) (F.matrix f) in
  check "matrix is genuinely redundant" true (cone > 100);
  (* headroom too small for eliminating a universal over the redundant
     matrix *)
  let config = { Hqs.default_config with node_limit = Some (cone + 32) } in
  Alcotest.check_raises "memout escapes" Budget.Out_of_memory_budget (fun () ->
      ignore (Hqs.solve_formula ~config f));
  check "peak nodes reach the limit" true (gauge "hqs.peak_nodes" >= float_of_int (cone + 32))

let test_trivial_matrices () =
  let f = F.create () in
  F.add_universal f 0;
  F.set_matrix f M.true_;
  Alcotest.check verdict_t "true matrix" Hqs.Sat (fst (Hqs.solve_formula f));
  F.set_matrix f M.false_;
  Alcotest.check verdict_t "false matrix" Hqs.Unsat (fst (Hqs.solve_formula f))

(* ----------------------------------------------------- linear prefixes *)

(* A QBF as a DQBF: [blocks] outermost first, [true] for a universal
   block; each existential depends on every universal bound before it *)
let linear blocks matrix =
  let f = F.create () in
  ignore
    (List.fold_left
       (fun outer (forall, vs) ->
         if forall then begin
           List.iter (F.add_universal f) vs;
           Bitset.union outer (Bitset.of_list vs)
         end
         else begin
           List.iter (fun y -> F.add_existential f y ~deps:outer) vs;
           outer
         end)
       Bitset.empty blocks);
  F.set_matrix f (matrix (F.man f));
  f

let solves name expected f = Alcotest.check verdict_t name expected (fst (Hqs.solve_formula f))
let iff_xy man = M.mk_iff man (M.input man 0) (M.input man 1)

let test_forall_exists_iff () =
  solves "forall x exists y: x <-> y" Hqs.Sat (linear [ (true, [ 0 ]); (false, [ 1 ]) ] iff_xy)

let test_exists_forall_iff () =
  solves "exists y forall x: x <-> y" Hqs.Unsat (linear [ (false, [ 1 ]); (true, [ 0 ]) ] iff_xy)

(* matrix variables the prefix does not bind are outermost existentials *)
let test_free_vars_existential () =
  let x man = M.input man 0 and z man = M.input man 2 in
  solves "x & y" Hqs.Sat (linear [] (fun man -> M.mk_and man (x man) (M.input man 1)));
  solves "exists x forall z: x | z" Hqs.Sat
    (linear [ (true, [ 2 ]) ] (fun man -> M.mk_or man (x man) (z man)));
  solves "exists x forall z: (x | z) & (!x | z)" Hqs.Unsat
    (linear [ (true, [ 2 ]) ] (fun man ->
         M.mk_and man (M.mk_or man (x man) (z man)) (M.mk_or man (M.compl_ (x man)) (z man))))

let test_constant_matrices () =
  solves "true matrix" Hqs.Sat (linear [ (true, [ 0 ]) ] (fun _ -> M.true_));
  solves "false matrix" Hqs.Unsat (linear [ (false, [ 0 ]) ] (fun _ -> M.false_))

let test_forall_tautology () =
  (* (x|y) | (!x&!y) is valid without collapsing in the AIG; x|y is not *)
  let x man = M.input man 0 and y man = M.input man 1 in
  solves "valid" Hqs.Sat
    (linear [ (true, [ 0; 1 ]) ] (fun man ->
         M.mk_or man (M.mk_or man (x man) (y man))
           (M.mk_and man (M.compl_ (x man)) (M.compl_ (y man)))));
  solves "not valid" Hqs.Unsat
    (linear [ (true, [ 0; 1 ]) ] (fun man -> M.mk_or man (x man) (y man)))

let test_three_level () =
  (* forall x exists y forall z: (x <-> y) | (y <-> z) *)
  let f =
    linear [ (true, [ 0 ]); (false, [ 1 ]); (true, [ 2 ]) ] (fun man ->
        let v = M.input man in
        M.mk_or man (M.mk_iff man (v 0) (v 1)) (M.mk_iff man (v 1) (v 2)))
  in
  check "matches expansion" (Dqbf.Reference.by_expansion f) (fst (Hqs.solve_formula f) = Hqs.Sat)

(* random CNFs under a random linear prefix: a quantifier and a position
   per variable *)
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

let qbf_arb = QCheck.make ~print:qbf_print (qbf_gen_sized ~vars:(2, 6) ~clauses:(1, 20) ~width:(1, 3))

(* wide matrices: dozens of root conjuncts sharing subgraphs, so one
   elimination cofactors many parts through the shared memo; clauses of 4-6
   literals keep about a fifth of the instances true and leave several
   eliminations per solve *)
let wide_qbf_arb =
  QCheck.make ~print:qbf_print (qbf_gen_sized ~vars:(8, 12) ~clauses:(20, 60) ~width:(4, 6))

let qbf_pcnf ?(negate = false) (n, clauses, quants, order) =
  let quant = Array.of_list quants in
  let forall v = quant.(v) <> negate in
  let univs = List.filter forall order in
  let rec exists outer = function
    | [] -> []
    | v :: rest when forall v -> exists (v :: outer) rest
    | y :: rest -> (y, List.rev outer) :: exists outer rest
  in
  let clause c = List.map (fun (v, s) -> if s then -(v + 1) else v + 1) c in
  { Dqbf.Pcnf.num_vars = n; univs; exists = exists [] order; clauses = List.map clause clauses }

(* the verdict agrees with expansion, and a SAT verdict's witness from
   the model-recording run verifies *)
let prop_matches_brute ?(count = 300) ?(arb = qbf_arb) config name =
  QCheck.Test.make ~name ~count arb (fun inst ->
      let pcnf = qbf_pcnf inst in
      let f = Dqbf.Pcnf.to_formula pcnf in
      let sat = fst (Hqs.solve_formula ~config f) = Hqs.Sat in
      sat = Dqbf.Reference.by_expansion f
      && ((not sat)
         ||
         let config = { config with Hqs.preprocess = Dqbf.Preprocess.off } in
         match Hqs.run ~config ~model:true pcnf with
         | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some m; _ } ->
             Dqbf.Skolem.verify f m = Ok ()
         | _ -> false))

let no_unitpure = { Hqs.default_config with use_unitpure = false }
let prop_linear_default = prop_matches_brute Hqs.default_config "solver matches brute force"

let prop_linear_no_unitpure =
  prop_matches_brute no_unitpure "solver matches brute force (no unit/pure)"

let prop_wide_default =
  prop_matches_brute ~count:100 ~arb:wide_qbf_arb Hqs.default_config
    "wide matrices: solver matches brute force"

let prop_wide_no_unitpure =
  prop_matches_brute ~count:100 ~arb:wide_qbf_arb no_unitpure
    "wide matrices: brute force (no unit/pure)"

(* every variable is bound, so negating the matrix and flipping every
   quantifier negates the verdict *)
let prop_negation_flips =
  QCheck.Test.make ~name:"negating matrix and flipping quantifiers negates result" ~count:200
    qbf_arb (fun inst ->
      let flipped = Dqbf.Pcnf.to_formula (qbf_pcnf ~negate:true inst) in
      F.set_matrix flipped (M.compl_ (F.matrix flipped));
      let sat f = fst (Hqs.solve_formula f) = Hqs.Sat in
      sat (Dqbf.Pcnf.to_formula (qbf_pcnf inst)) = not (sat flipped))

(* ------------------------------------------------------------- random *)

let agrees ?(config = Hqs.default_config) name =
  QCheck.Test.make ~name ~count:300 instance_arb (fun inst ->
      let f = build inst in
      let expected = Dqbf.Reference.by_expansion f in
      let v, _ = Hqs.solve_formula ~config f in
      (v = Hqs.Sat) = expected)

let prop_default = agrees "hqs agrees with expansion (default)"

let prop_no_unitpure =
  agrees ~config:{ Hqs.default_config with use_unitpure = false } "hqs agrees (no unit/pure)"

let prop_no_thm2 =
  agrees ~config:{ Hqs.default_config with use_thm2 = false } "hqs agrees (no Theorem 2)"

let prop_greedy =
  agrees ~config:{ Hqs.default_config with use_maxsat = false } "hqs agrees (greedy set)"

let prop_expand_all =
  agrees ~config:{ Hqs.default_config with mode = Hqs.Expand_all } "hqs agrees (expand-all baseline)"

let prop_pcnf_pipeline =
  QCheck.Test.make ~name:"full pcnf pipeline agrees with expansion" ~count:300 instance_arb
    (fun inst ->
      let pcnf = pcnf_of_instance inst in
      let expected = Dqbf.Reference.by_expansion (Dqbf.Pcnf.to_formula pcnf) in
      let v, _ = Hqs.solve_pcnf pcnf in
      (v = Hqs.Sat) = expected)

let prop_pcnf_no_preprocess =
  QCheck.Test.make ~name:"pipeline without preprocessing agrees" ~count:200 instance_arb
    (fun inst ->
      let pcnf = pcnf_of_instance inst in
      let expected = Dqbf.Reference.by_expansion (Dqbf.Pcnf.to_formula pcnf) in
      let config = { Hqs.default_config with preprocess = Dqbf.Preprocess.off } in
      let v, _ = Hqs.solve_pcnf ~config pcnf in
      (v = Hqs.Sat) = expected)

(* [run] goes through the same pipeline as [solve_pcnf]: same verdict,
   same work counters *)
let prop_run_matches_solve_pcnf =
  QCheck.Test.make ~name:"run agrees with solve_pcnf on verdict and counts" ~count:200
    instance_arb (fun inst ->
      let pcnf = pcnf_of_instance inst in
      let v, stats = Hqs.solve_pcnf pcnf in
      let r = Hqs.run pcnf in
      r.Hqs.outcome = Hqs.Verdict v
      && List.for_all
           (function
             | _, Hqs.Count name -> Hqs.metric r.Hqs.stats name = Hqs.metric stats name
             | _, (Hqs.Seconds _ | Hqs.Dep_scheme | Hqs.Inproc_mode | Hqs.Cert_status) -> true)
           Hqs.stat_columns)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "hqs"
    [
      ( "known",
        [
          Alcotest.test_case "example 1" `Quick test_example1;
          Alcotest.test_case "input not mutated" `Quick test_input_not_mutated;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "run expired budget" `Quick test_run_expired_budget;
          Alcotest.test_case "node limit memout" `Quick test_node_limit_memout;
          Alcotest.test_case "trivial matrices" `Quick test_trivial_matrices;
          Alcotest.test_case "forall-exists iff" `Quick test_forall_exists_iff;
          Alcotest.test_case "exists-forall iff" `Quick test_exists_forall_iff;
          Alcotest.test_case "free vars" `Quick test_free_vars_existential;
          Alcotest.test_case "constant matrices" `Quick test_constant_matrices;
          Alcotest.test_case "forall tautology" `Quick test_forall_tautology;
          Alcotest.test_case "three level" `Quick test_three_level;
        ] );
      ( "memout",
        [
          Alcotest.test_case "elim back-end blowup" `Quick test_backend_memout;
          Alcotest.test_case "main-loop memout escapes" `Quick test_main_loop_memout;
        ] );
      ( "random",
        qsuite
          [
            prop_default;
            prop_no_unitpure;
            prop_no_thm2;
            prop_greedy;
            prop_expand_all;
            prop_pcnf_pipeline;
            prop_pcnf_no_preprocess;
            prop_run_matches_solve_pcnf;
            prop_linear_default;
            prop_linear_no_unitpure;
            prop_wide_default;
            prop_wide_no_unitpure;
            prop_negation_flips;
          ] );
    ]
