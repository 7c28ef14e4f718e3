open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula
module Sk = Dqbf.Skolem

let check = Alcotest.(check bool)

(* shared random-instance machinery *)
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

(* ----------------------------------------------------------- basic API *)

let test_skolem_eval () =
  let model = Sk.create () in
  let man = Sk.man model in
  Sk.define model 5 (M.mk_xor man (M.input man 0) (M.input man 1));
  check "xor eval tt" true (Sk.eval model 5 (fun _ -> true) = false);
  check "xor eval tf" true (Sk.eval model 5 (fun v -> v = 0) = true);
  check "find" true (Sk.find model 5 <> None);
  check "missing" true (Sk.find model 6 = None);
  check "bindings" true (List.map fst (Sk.bindings model) = [ 5 ])

let test_verify_rejects_bad_models () =
  let f = example1 ~crossed:false in
  (* constants cannot satisfy y1 <-> x1 *)
  let model = Sk.create () in
  Sk.define model 2 M.true_;
  Sk.define model 3 M.true_;
  check "not tautology" true (Sk.verify f model = Error Sk.Not_tautology);
  (* missing definition *)
  let partial = Sk.create () in
  Sk.define partial 2 M.true_;
  check "missing" true (Sk.verify f partial = Error (Sk.Missing 3));
  (* right function, wrong support: y1 := x2 *)
  let bad = Sk.create () in
  let man = Sk.man bad in
  Sk.define bad 2 (M.input man 1);
  Sk.define bad 3 (M.input man 1);
  check "bad support" true (Sk.verify f bad = Error (Sk.Bad_support (2, 1)))

let test_verify_accepts_identity_model () =
  let f = example1 ~crossed:false in
  let model = Sk.create () in
  let man = Sk.man model in
  Sk.define model 2 (M.input man 0);
  Sk.define model 3 (M.input man 1);
  check "verifies" true (Sk.verify f model = Ok ())

(* ------------------------------------------------------- model trail *)

let test_trail_reconstruct_order () =
  (* chronological record: y5 := y6 (Def), then y6 := x0 (Def, newer).
     Reconstruction must resolve y5 through y6's later definition. *)
  let t = Dqbf.Model_trail.create () in
  let scratch = M.create () in
  Dqbf.Model_trail.record_def t scratch 5 (M.input scratch 6);
  Dqbf.Model_trail.record_def t scratch 6 (M.input scratch 0);
  let model = Dqbf.Model_trail.reconstruct t in
  check "y5 follows y6" true (Sk.eval model 5 (fun v -> v = 0));
  check "y5 false elsewhere" false (Sk.eval model 5 (fun _ -> false));
  Alcotest.(check int) "steps" 2 (Dqbf.Model_trail.num_steps t)

let test_trail_ite_merge () =
  (* Theorem-1 bookkeeping: record_ite y x y1, then the branch definitions
     (newer): y := false-branch const 0, y1 := const 1.
     Final s_y = ite(x, 1, 0) = x. *)
  let t = Dqbf.Model_trail.create () in
  Dqbf.Model_trail.record_ite t ~y:5 ~x:0 ~y1:9;
  Dqbf.Model_trail.record_const t 5 false;
  Dqbf.Model_trail.record_const t 9 true;
  let model = Dqbf.Model_trail.reconstruct t in
  check "x=1 branch" true (Sk.eval model 5 (fun v -> v = 0));
  check "x=0 branch" false (Sk.eval model 5 (fun _ -> false))

let test_trail_literal () =
  let t = Dqbf.Model_trail.create () in
  Dqbf.Model_trail.record_literal t 7 ~var:1 ~neg:true;
  let model = Dqbf.Model_trail.reconstruct t in
  check "negated literal" true (Sk.eval model 7 (fun _ -> false));
  check "negated literal 2" false (Sk.eval model 7 (fun v -> v = 1))

(* --------------------------------------------------------- HQS models *)

(* Example 1 as a PCNF: y1 (3) depends on x1 (1), y2 (4) on x2 (2) *)
let example1_pcnf ~crossed =
  Dqbf.Pcnf.parse_string
    (if crossed then "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 2 0\n3 -2 0\n-4 1 0\n4 -1 0\n"
     else "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n")

let test_hqs_model_example1 () =
  let f = example1 ~crossed:false in
  match Hqs.run ~model:true (example1_pcnf ~crossed:false) with
  | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; _ } ->
      check "verifies" true (Sk.verify f model = Ok ());
      (* the only valid Skolem functions here are y1 = x1, y2 = x2 *)
      List.iter
        (fun bits ->
          let env v = bits land (1 lsl v) <> 0 in
          check "y1 = x1" (env 0) (Sk.eval model 2 env);
          check "y2 = x2" (env 1) (Sk.eval model 3 env))
        [ 0; 1; 2; 3 ]
  | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = None; _ } -> Alcotest.fail "expected a model"
  | _ -> Alcotest.fail "expected SAT"

let test_hqs_model_unsat_none () =
  match Hqs.run ~model:true (example1_pcnf ~crossed:true) with
  | { Hqs.outcome = Hqs.Verdict Hqs.Unsat; model = None; _ } -> ()
  | { Hqs.outcome = Hqs.Verdict Hqs.Unsat; model = Some _; _ } ->
      Alcotest.fail "no model expected on UNSAT"
  | _ -> Alcotest.fail "expected UNSAT"

(* the main loop's own model reconstruction: preprocessing off, so every
   Skolem function comes from the eliminations *)
let model_agrees ?(config = Hqs.default_config) name =
  QCheck.Test.make ~name ~count:300 instance_arb (fun inst ->
      let f = build inst in
      let expected = Dqbf.Reference.by_expansion f in
      let config = { config with Hqs.preprocess = Dqbf.Preprocess.off } in
      match Hqs.run ~config ~model:true (pcnf_of_instance inst) with
      | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; _ } ->
          expected && Sk.verify f model = Ok ()
      | { Hqs.outcome = Hqs.Verdict Hqs.Unsat; _ } -> not expected
      | _ -> false)

let prop_model_default = model_agrees "hqs model verifies (default)"

let prop_model_no_unitpure =
  model_agrees ~config:{ Hqs.default_config with use_unitpure = false }
    "hqs model verifies (no unit/pure)"

let prop_model_no_thm2 =
  model_agrees ~config:{ Hqs.default_config with use_thm2 = false }
    "hqs model verifies (no Theorem 2)"

let prop_model_expand_all =
  model_agrees ~config:{ Hqs.default_config with mode = Hqs.Expand_all }
    "hqs model verifies (expand-all)"

let prop_model_greedy =
  model_agrees ~config:{ Hqs.default_config with use_maxsat = false }
    "hqs model verifies (greedy set)"

let prop_pcnf_model =
  QCheck.Test.make ~name:"pcnf pipeline model verifies against the original" ~count:300
    instance_arb (fun inst ->
      let pcnf = pcnf_of_instance inst in
      let original = Dqbf.Pcnf.to_formula pcnf in
      let expected = Dqbf.Reference.by_expansion original in
      match Hqs.run ~model:true pcnf with
      | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; _ } ->
          expected && Sk.verify original model = Ok ()
      | { Hqs.outcome = Hqs.Verdict Hqs.Unsat; _ } -> not expected
      | _ -> false)

let prop_pcnf_model_no_preprocess =
  QCheck.Test.make ~name:"pcnf model verifies (preprocessing off)" ~count:200 instance_arb
    (fun inst ->
      let pcnf = pcnf_of_instance inst in
      let original = Dqbf.Pcnf.to_formula pcnf in
      let config = { Hqs.default_config with preprocess = Dqbf.Preprocess.off } in
      match Hqs.run ~config ~model:true pcnf with
      | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; _ } ->
          Sk.verify original model = Ok ()
      | { Hqs.outcome = Hqs.Verdict Hqs.Unsat; _ } -> not (Dqbf.Reference.by_expansion original)
      | _ -> false)

(* ---------------------------------------------------------- iDQ models *)

let prop_idq_model =
  QCheck.Test.make ~name:"idq model verifies" ~count:300 instance_arb (fun inst ->
      let f = build inst in
      let expected = Dqbf.Reference.by_expansion f in
      match Idq.solve_with_model f with
      | (true, Some model), _ -> expected && Sk.verify f model = Ok ()
      | (true, None), _ -> false
      | (false, _), _ -> not expected)

(* ----------------------------------------------------------- PEC models *)

let test_pec_models_verify () =
  let cases =
    [
      Circuit.Families.adder ~bits:2 ~boxes:2 ~fault:false;
      Circuit.Families.bitcell ~cells:4 ~boxes:2 ~fault:false;
      Circuit.Families.lookahead ~cells:4 ~boxes:2 ~fault:false;
      Circuit.Families.pec_xor ~length:4 ~boxes:2 ~fault:false;
      Circuit.Families.comp ~bits:3 ~boxes:2 ~fault:false;
      Circuit.Families.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:false;
    ]
  in
  List.iter
    (fun (inst : Circuit.Families.instance) ->
      let original = Dqbf.Pcnf.to_formula inst.Circuit.Families.pcnf in
      match Hqs.run ~model:true inst.Circuit.Families.pcnf with
      | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; _ } -> (
          match Sk.verify original model with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s: model rejected: %a" inst.Circuit.Families.id Sk.pp_failure e)
      | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = None; _ } ->
          Alcotest.failf "%s: no model" inst.Circuit.Families.id
      | _ -> Alcotest.failf "%s: expected SAT" inst.Circuit.Families.id)
    cases

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "skolem"
    [
      ( "api",
        [
          Alcotest.test_case "eval" `Quick test_skolem_eval;
          Alcotest.test_case "verify rejects bad models" `Quick test_verify_rejects_bad_models;
          Alcotest.test_case "verify accepts identity" `Quick test_verify_accepts_identity_model;
          Alcotest.test_case "trail: newest-first resolution" `Quick test_trail_reconstruct_order;
          Alcotest.test_case "trail: Theorem-1 ite merge" `Quick test_trail_ite_merge;
          Alcotest.test_case "trail: literal defs" `Quick test_trail_literal;
        ] );
      ( "hqs",
        [
          Alcotest.test_case "example 1 model" `Quick test_hqs_model_example1;
          Alcotest.test_case "unsat gives no model" `Quick test_hqs_model_unsat_none;
        ]
        @ qsuite
            [
              prop_model_default;
              prop_model_no_unitpure;
              prop_model_no_thm2;
              prop_model_expand_all;
              prop_model_greedy;
              prop_pcnf_model;
              prop_pcnf_model_no_preprocess;
            ] );
      ("idq", qsuite [ prop_idq_model ]);
      ("pec", [ Alcotest.test_case "PEC models verify" `Slow test_pec_models_verify ]);
    ]
