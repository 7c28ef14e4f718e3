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
   straight to the QBF back end, whose existential eliminations grow the
   64-node matrix to about 250 nodes in the back end's own manager. *)
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
     that of the back end's own manager, which stood at the limit, and
     the back end's time was counted *)
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

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "hqs"
    [
      ( "known",
        [
          Alcotest.test_case "example 1" `Quick test_example1;
          Alcotest.test_case "input not mutated" `Quick test_input_not_mutated;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "node limit memout" `Quick test_node_limit_memout;
          Alcotest.test_case "trivial matrices" `Quick test_trivial_matrices;
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
          ] );
    ]
