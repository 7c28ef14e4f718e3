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

let prop_sat_probe =
  agrees ~config:{ Hqs.default_config with use_sat_probe = true } "hqs agrees (SAT probe)"

let prop_aggressive_fraig =
  agrees
    ~config:
      { Hqs.default_config with qbf = { Qbf.Solver.default_config with fraig_node_threshold = 1 } }
    "hqs agrees (fraig every step)"

let prop_search_backend =
  agrees
    ~config:{ Hqs.default_config with qbf_backend = Hqs.Search_backend }
    "hqs agrees (QDPLL back end)"

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
      ( "random",
        qsuite
          [
            prop_default;
            prop_no_unitpure;
            prop_no_thm2;
            prop_greedy;
            prop_expand_all;
            prop_sat_probe;
            prop_aggressive_fraig;
            prop_search_backend;
            prop_pcnf_pipeline;
            prop_pcnf_no_preprocess;
          ] );
    ]
