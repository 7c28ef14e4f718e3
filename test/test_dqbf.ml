open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------ generators *)

(* a random DQBF: universals 0..nu-1, existentials nu..nu+ne-1 with random
   dependency sets, and a random CNF matrix *)
type instance = {
  nu : int;
  ne : int;
  dep_masks : int list; (* per existential, bitmask over universals *)
  clauses : (int * bool) list list; (* (var, negated) *)
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

let build { nu; ne; dep_masks; clauses } =
  let f = F.create () in
  for x = 0 to nu - 1 do
    F.add_universal f x
  done;
  List.iteri
    (fun i mask ->
      let deps = Bitset.of_list (List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init nu Fun.id)) in
      F.add_existential f (nu + i) ~deps)
    dep_masks;
  ignore ne;
  let man = F.man f in
  let lit (v, s) = M.apply_sign (M.input man v) ~neg:s in
  F.set_matrix f
    (M.mk_and_list man (List.map (fun c -> M.mk_or_list man (List.map lit c)) clauses));
  f

(* ------------------------------------------------------------ known cases *)

(* Example 1 of the paper: forall x1 x2 exists y1(x1) y2(x2) *)
let example1 ~crossed =
  let f = F.create () in
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:(Bitset.singleton 0);
  F.add_existential f 3 ~deps:(Bitset.singleton 1);
  let man = F.man f in
  let x1 = M.input man 0 and x2 = M.input man 1 in
  let y1 = M.input man 2 and y2 = M.input man 3 in
  let matrix =
    if crossed then M.mk_and man (M.mk_iff man y1 x2) (M.mk_iff man y2 x1)
    else M.mk_and man (M.mk_iff man y1 x1) (M.mk_iff man y2 x2)
  in
  F.set_matrix f matrix;
  f

let test_example1_sat () =
  check "aligned deps satisfiable" true (Dqbf.Reference.by_expansion (example1 ~crossed:false));
  check "skolem agrees" true (Dqbf.Reference.by_skolem_enum (example1 ~crossed:false))

let test_example1_unsat () =
  check "crossed deps unsatisfiable" false (Dqbf.Reference.by_expansion (example1 ~crossed:true));
  check "skolem agrees" false (Dqbf.Reference.by_skolem_enum (example1 ~crossed:true))

let test_example1_depgraph () =
  let f = example1 ~crossed:false in
  check "cyclic" false (Dqbf.Depgraph.is_acyclic f);
  check_int "one incomparable pair" 1 (List.length (Dqbf.Depgraph.incomparable_pairs f));
  (* edges both ways between y1 and y2 *)
  let es = Dqbf.Depgraph.edges f in
  check "y1->y2" true (List.mem (2, 3) es);
  check "y2->y1" true (List.mem (3, 2) es)

let test_acyclic_prefix () =
  (* chain deps: y2(), y3(x0), y4(x0 x1) -> QBF-expressible as
     exists y2 forall x0 exists y3 forall x1 exists y4 *)
  let f = F.create () in
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:Bitset.empty;
  F.add_existential f 3 ~deps:(Bitset.singleton 0);
  F.add_existential f 4 ~deps:(Bitset.of_list [ 0; 1 ]);
  let man = F.man f in
  let v = M.input man in
  let clause lits = M.mk_or_list man lits in
  F.set_matrix f
    (M.mk_and_list man
       [
         clause [ v 0; v 2 ];
         clause [ v 1; v 3 ];
         clause [ M.compl_ (v 0); v 4 ];
         clause [ M.compl_ (v 1); M.compl_ (v 4) ];
         clause [ v 3; M.compl_ (v 2) ];
       ]);
  check "acyclic" true (Dqbf.Depgraph.is_acyclic f);
  (* the innermost block goes first: y4, then x1, y3, x0 *)
  List.iter
    (fun x ->
      Dqbf.Elim.innermost f;
      check (Printf.sprintf "%d eliminated" x) false (F.is_universal f x || F.is_existential f x))
    [ 4; 1; 3; 0 ]

(* ------------------------------------------------ reference cross-checks *)

let small_enough inst =
  List.fold_left (fun acc m -> acc + (1 lsl Bitset.cardinal (Bitset.of_list (List.filter (fun x -> m land (1 lsl x) <> 0) (List.init inst.nu Fun.id))))) 0 inst.dep_masks <= 12

let prop_expansion_vs_skolem =
  QCheck.Test.make ~name:"expansion agrees with skolem enumeration" ~count:150 instance_arb
    (fun inst ->
      QCheck.assume (small_enough inst);
      let f = build inst in
      Dqbf.Reference.by_expansion f = Dqbf.Reference.by_skolem_enum (build inst))

(* ----------------------------------------------- elimination correctness *)

let prop_thm1_preserves =
  QCheck.Test.make ~name:"Theorem 1 (universal elimination) preserves truth" ~count:250
    (QCheck.pair instance_arb (QCheck.int_bound 2)) (fun (inst, xi) ->
      let x = xi mod inst.nu in
      let f = build inst in
      let before = Dqbf.Reference.by_expansion f in
      Dqbf.Elim.universal f x;
      (not (F.is_universal f x))
      && Dqbf.Reference.by_expansion f = before)

let prop_thm1_repeated =
  QCheck.Test.make ~name:"eliminating every universal yields SAT problem" ~count:150
    instance_arb (fun inst ->
      let f = build inst in
      let before = Dqbf.Reference.by_expansion f in
      List.iter (Dqbf.Elim.universal f) (List.init inst.nu Fun.id);
      Bitset.is_empty (F.universals f) && Dqbf.Reference.by_expansion f = before)

let prop_thm2_preserves =
  QCheck.Test.make ~name:"Theorem 2 (existential elimination) preserves truth" ~count:250
    instance_arb (fun inst ->
      (* force one existential to depend on everything *)
      let inst =
        { inst with dep_masks = ((1 lsl inst.nu) - 1) :: List.tl inst.dep_masks }
      in
      let f = build inst in
      let before = Dqbf.Reference.by_expansion f in
      Dqbf.Elim.theorem2 f && Dqbf.Reference.by_expansion f = before)

(* forall x0 exists y1(x0) y2(x0): (y1 | x0) & (~y1 | ~x0) & (y1 | y2). y1
   lies in every AND node of the cone, y2 in two: the cheaper y2 goes
   first, although y1 has the lower id *)
let test_thm2_cheapest_first () =
  let f = F.create () in
  F.add_universal f 0;
  F.add_existential f 1 ~deps:(Bitset.singleton 0);
  F.add_existential f 2 ~deps:(Bitset.singleton 0);
  let man = F.man f in
  let v = M.input man in
  F.set_matrix f
    (M.mk_and_list man
       [
         M.mk_or man (v 1) (v 0);
         M.mk_or man (M.compl_ (v 1)) (M.compl_ (v 0));
         M.mk_or man (v 1) (v 2);
       ]);
  check "first step" true (Dqbf.Elim.theorem2 f);
  check "y2 eliminated" false (F.is_existential f 2);
  check "y1 kept" true (F.is_existential f 1);
  check "second step" true (Dqbf.Elim.theorem2 f);
  check "no existential left" false (Dqbf.Elim.theorem2 f);
  check "satisfiable" true (M.is_true (F.matrix f))

(* the unit/pure scan of the current matrix *)
let scan f = Aig.Unitpure.scan (F.man f) (F.matrix f)

let prop_unitpure_preserves =
  QCheck.Test.make ~name:"Theorem 5 (unit/pure elimination) preserves truth" ~count:300
    instance_arb (fun inst ->
      let f = build inst in
      let before = Dqbf.Reference.by_expansion f in
      match Dqbf.Elim.unit_pure_round f (scan f) with
      | `Unsat -> before = false
      | `Eliminated _ | `None -> Dqbf.Reference.by_expansion f = before)

let prop_prune_preserves =
  QCheck.Test.make ~name:"prefix pruning preserves truth" ~count:200 instance_arb (fun inst ->
      let f = build inst in
      let before = Dqbf.Reference.by_expansion f in
      Dqbf.Elim.prune_prefix f (scan f);
      Dqbf.Reference.by_expansion f = before)

(* a random instance, after one universal elimination when it has a
   universal in some dependency set: its matrix is no longer a CNF *)
let build_expanded inst =
  let f = build inst in
  (match List.find_opt (fun (_, d) -> not (Bitset.is_empty d)) (F.existentials f) with
  | Some (_, d) -> Dqbf.Elim.universal f (List.hd (Bitset.to_list d))
  | None -> ());
  f

let prop_scan_reaches_support =
  QCheck.Test.make ~name:"unit/pure scan reaches the support" ~count:300 instance_arb
    (fun inst ->
      let f = build_expanded inst in
      Bitset.equal
        (Bitset.of_list (List.map fst (scan f)))
        (M.support (F.man f) (F.matrix f)))

(* the round's one shared scan against a fresh scan per call, on two
   copies built alike: same outcome, prefix, matrix, nodes and trail *)
let prop_shared_scan =
  QCheck.Test.make ~name:"one shared scan acts as two scans" ~count:300
    instance_arb (fun inst ->
      let round shared =
        let f = build_expanded inst and trail = Dqbf.Model_trail.create () in
        let s = scan f in
        Dqbf.Elim.prune_prefix ~trail f s;
        let outcome = Dqbf.Elim.unit_pure_round ~trail f (if shared then s else scan f) in
        let skolem = Dqbf.Model_trail.reconstruct trail in
        ( outcome,
          F.matrix f,
          M.num_nodes (F.man f),
          Bitset.to_list (F.universals f),
          List.map (fun (y, d) -> (y, Bitset.to_list d)) (F.existentials f),
          Dqbf.Model_trail.num_steps trail,
          Dqbf.Skolem.bindings skolem )
      in
      round true = round false)

(* one innermost elimination under a linear prefix keeps the verdict *)
let prop_innermost_preserves =
  QCheck.Test.make ~name:"innermost elimination preserves truth" ~count:300 instance_arb
    (fun inst ->
      let f = build inst in
      Dqbf.Elim.prune_prefix f (scan f);
      QCheck.assume
        (Dqbf.Depgraph.is_acyclic f
        && (not (Bitset.is_empty (F.universals f)))
        && F.existentials f <> []);
      let before = Dqbf.Reference.by_expansion f in
      Dqbf.Elim.innermost f;
      Dqbf.Reference.by_expansion f = before)

let prop_acyclic_matches_pairs =
  QCheck.Test.make ~name:"is_acyclic iff no incomparable pair" ~count:300 instance_arb
    (fun inst ->
      let f = build inst in
      Dqbf.Depgraph.is_acyclic f = (Dqbf.Depgraph.incomparable_pairs f = []))

(* ------------------------------------------------------- elimination set *)

(* does eliminating [set] (uniform removal from every dep set) make all
   pairs comparable? *)
let set_linearizes f set =
  let removed = Bitset.of_list set in
  let ds = List.map (fun (_, d) -> Bitset.diff d removed) (F.existentials f) in
  let rec ok = function
    | [] -> true
    | d :: rest ->
        List.for_all (fun d' -> Bitset.subset d d' || Bitset.subset d' d) rest && ok rest
  in
  ok ds

let prop_elimset_linearizes =
  QCheck.Test.make ~name:"MaxSAT elimination set linearizes the prefix" ~count:200
    instance_arb (fun inst ->
      let f = build inst in
      set_linearizes f (Dqbf.Elimset.minimum_set f))

let prop_elimset_minimum =
  QCheck.Test.make ~name:"MaxSAT elimination set is minimum" ~count:200 instance_arb
    (fun inst ->
      let f = build inst in
      let set = Dqbf.Elimset.minimum_set f in
      let k = List.length set in
      (* no strictly smaller subset of universals linearizes *)
      let univs = Bitset.to_list (F.universals f) in
      let rec subsets acc = function
        | [] -> [ acc ]
        | x :: rest -> subsets acc rest @ subsets (x :: acc) rest
      in
      List.for_all
        (fun s -> List.length s >= k || not (set_linearizes f s))
        (subsets [] univs))

let prop_greedy_linearizes =
  QCheck.Test.make ~name:"greedy elimination set linearizes too" ~count:200 instance_arb
    (fun inst ->
      let f = build inst in
      let greedy = Dqbf.Elimset.greedy_all f in
      set_linearizes f greedy
      && List.length greedy >= List.length (Dqbf.Elimset.minimum_set f))

let test_ordered_queue () =
  let f = example1 ~crossed:false in
  (* |E_x1| = |{y1}| = 1, |E_x2| = 1; both orders fine, check it's a perm *)
  let q = Dqbf.Elimset.ordered_queue f [ 0; 1 ] in
  check "queue is permutation" true (List.sort Int.compare q = [ 0; 1 ]);
  check_int "E_x count" 1 (Dqbf.Elimset.elimination_count f 0)

(* --------------------------------------------------------------- pcnf *)

let test_pcnf_roundtrip () =
  let text = "c t\np cnf 4 2\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n4 -2 0\n" in
  let p = Dqbf.Pcnf.parse_string text in
  check_int "vars" 4 p.Dqbf.Pcnf.num_vars;
  check "univs" true (p.Dqbf.Pcnf.univs = [ 0; 1 ]);
  check "exists" true (p.Dqbf.Pcnf.exists = [ (2, [ 0 ]); (3, [ 1 ]) ]);
  let p2 = Dqbf.Pcnf.parse_string (Dqbf.Pcnf.to_string p) in
  check "roundtrip" true (p = p2);
  check "valid" true (Dqbf.Pcnf.validate p = Ok ())

let test_pcnf_e_line_deps () =
  let text = "p cnf 3 1\na 1 0\ne 2 0\na 3 0\n1 2 3 0\n" in
  let p = Dqbf.Pcnf.parse_string text in
  (* e-declared var depends on universals declared so far: just x1 *)
  check "e deps" true (p.Dqbf.Pcnf.exists = [ (1, [ 0 ]) ]);
  check "univs" true (p.Dqbf.Pcnf.univs = [ 0; 2 ]);
  (* two a blocks, multi-variable e lines (each sees the universals declared
     so far, in declaration order) and explicit d lines, all in file order *)
  let text =
    "p cnf 10 1\na 1 2 0\ne 3 4 0\nd 5 2 0\na 6 7 0\ne 8 9 0\nd 10 7 1 0\ne 0\n1 3 0\n"
  in
  let p = Dqbf.Pcnf.parse_string text in
  check "univs across blocks" true (p.Dqbf.Pcnf.univs = [ 0; 1; 5; 6 ]);
  check "exists across blocks" true
    (p.Dqbf.Pcnf.exists
    = [
        (2, [ 0; 1 ]);
        (3, [ 0; 1 ]);
        (4, [ 1 ]);
        (7, [ 0; 1; 5; 6 ]);
        (8, [ 0; 1; 5; 6 ]);
        (9, [ 6; 0 ]);
      ])

let test_pcnf_validate_errors () =
  let bad = { Dqbf.Pcnf.num_vars = 2; univs = [ 0; 0 ]; exists = []; clauses = [] } in
  check "dup decl" true (Result.is_error (Dqbf.Pcnf.validate bad));
  let bad2 = { Dqbf.Pcnf.num_vars = 2; univs = [ 0 ]; exists = [ (1, [ 1 ]) ]; clauses = [] } in
  check "dep not universal" true (Result.is_error (Dqbf.Pcnf.validate bad2))

(* every malformed input is a [Failure] naming what is wrong *)
let test_pcnf_parse_errors () =
  let fails_with msg text =
    Alcotest.check_raises (Printf.sprintf "%S" text) (Failure msg) (fun () ->
        ignore (Dqbf.Pcnf.parse_string text))
  in
  fails_with "Dqdimacs: bad token x" "p cnf 2 1\n1 x 0\n";
  fails_with "Dqdimacs: bad token 1x" "p cnf 2 1\n1x 2 0\n";
  fails_with "Dqdimacs: bad token 0x" "p cnf 2 1\na 1 0x\n";
  (* a clause split across lines stays an error *)
  fails_with "Dqdimacs: clause not terminated by 0" "p cnf 2 1\n1 2\n0\n";
  fails_with "Dqdimacs: clause not terminated by 0" "p cnf 2 2\n1 0 2";
  fails_with "Dqdimacs: non-positive variable in prefix" "p cnf 2 1\na -1 0\n1 2 0\n";
  fails_with "Dqdimacs: non-positive variable in prefix" "p cnf 2 1\nd 2 -1 0\n";
  fails_with "Dqdimacs: empty d-line" "p cnf 2 1\nd 0\n1 2 0\n"

(* the layouts a writer may choose all read as the plain LF file *)
let test_pcnf_parse_accepts () =
  let plain = Dqbf.Pcnf.parse_string "p cnf 3 2\na 1 0\nd 2 1 0\n1 -2 0\n2 3 0\n" in
  let same name text = check name true (Dqbf.Pcnf.parse_string text = plain) in
  same "tabs" "p\tcnf 3\t2\na\t1 0\nd 2\t1\t0\n1\t-2 0\n\t2 3\t0\n";
  same "comments between clauses" "c head\np cnf 3 2\na 1 0\nd 2 1 0\nc one\n1 -2 0\n  c two\n2 3 0\n";
  same "no final newline" "p cnf 3 2\na 1 0\nd 2 1 0\n1 -2 0\n2 3 0";
  same "blank lines" "\np cnf 3 2\n\na 1 0\nd 2 1 0\n \n1 -2 0\n2 3 0\n\n";
  same "two clauses on a line" "p cnf 3 2\na 1 0\nd 2 1 0\n1 -2 0 2 3 0\n";
  (* tokens that are not plain decimals still go through int_of_string *)
  same "+2 and 0x2" "p cnf 3 2\na 1 0\nd +2 1 0\n1 -0x2 0\n0x2 3 0\n";
  same "CRLF" "p cnf 3 2\r\na 1 0\r\nd 2 1 0\r\n1 -2 0\r\n2 3 0\r\n";
  check "num_vars from the p line" true
    ((Dqbf.Pcnf.parse_string "p cnf 5 0\n").Dqbf.Pcnf.num_vars = 5)

(* a frontend-sized instance (about 1 MB of text) survives a round trip *)
let test_pcnf_roundtrip_frontend () =
  let p = (Circuit.Families.lookahead ~cells:64 ~boxes:2 ~fault:true).Circuit.Families.pcnf in
  check "parse (to_string p) = p" true (Dqbf.Pcnf.parse_string (Dqbf.Pcnf.to_string p) = p)

let pcnf_of_instance inst =
  {
    Dqbf.Pcnf.num_vars = inst.nu + inst.ne;
    univs = List.init inst.nu Fun.id;
    exists =
      List.mapi
        (fun i mask ->
          (inst.nu + i, List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init inst.nu Fun.id)))
        inst.dep_masks;
    clauses =
      List.map (List.map (fun (v, s) -> if s then -(v + 1) else v + 1)) inst.clauses;
  }

let prop_pcnf_to_formula_matches =
  QCheck.Test.make ~name:"pcnf to_formula matches direct construction" ~count:200 instance_arb
    (fun inst ->
      let f1 = build inst in
      let f2 = Dqbf.Pcnf.to_formula (pcnf_of_instance inst) in
      Dqbf.Reference.by_expansion f1 = Dqbf.Reference.by_expansion f2)

(* ---------------------------------------------------------- preprocessing *)

let prop_preprocess_preserves =
  QCheck.Test.make ~name:"CNF preprocessing preserves truth" ~count:400 instance_arb
    (fun inst ->
      let pcnf = pcnf_of_instance inst in
      let reference = Dqbf.Reference.by_expansion (Dqbf.Pcnf.to_formula pcnf) in
      match Dqbf.Preprocess.run pcnf with
      | Dqbf.Preprocess.Unsat -> reference = false
      | Dqbf.Preprocess.Formula (f, _) -> Dqbf.Reference.by_expansion f = reference)

let test_preprocess_universal_unit () =
  (* a universal unit clause refutes the formula *)
  let pcnf =
    { Dqbf.Pcnf.num_vars = 2; univs = [ 0 ]; exists = [ (1, [ 0 ]) ]; clauses = [ [ 1 ]; [ 2; -1 ] ] }
  in
  check "unsat" true (Dqbf.Preprocess.run pcnf = Dqbf.Preprocess.Unsat)

(* the default pipeline's outcome plus the counters of the engine run
   that [on_inproc] reported *)
let preprocess_with_engine_stats ?config pcnf =
  let engine = ref None in
  let on_inproc = function
    | Inproc.Simplified res -> engine := Some res.Inproc.stats
    | Inproc.Unsat -> ()
  in
  let outcome = Dqbf.Preprocess.run ?config ~on_inproc pcnf in
  match (outcome, !engine) with
  | Dqbf.Preprocess.Formula (f, _), Some stats -> (f, stats)
  | Dqbf.Preprocess.Unsat, _ -> Alcotest.fail "not unsat"
  | Dqbf.Preprocess.Formula _, None -> Alcotest.fail "on_inproc did not report a run"

let test_preprocess_universal_reduction () =
  (* clause (x1 | y) where y does not depend on x1: x1 is reduced away,
     leaving unit y *)
  let pcnf =
    { Dqbf.Pcnf.num_vars = 2; univs = [ 0 ]; exists = [ (1, []) ]; clauses = [ [ 1; 2 ] ] }
  in
  let f, stats = preprocess_with_engine_stats pcnf in
  check_int "one reduction" 1 stats.Inproc.reduced_lits;
  check_int "one unit" 1 stats.Inproc.units;
  check "matrix true" true (M.is_true (F.matrix f))

let test_preprocess_off_applies_no_rule () =
  (* Off still goes through the engine, which loads the clauses and hands
     them back untouched: the hook fires once, with no step and no round,
     and the reducible universal literal survives into the matrix *)
  let pcnf =
    { Dqbf.Pcnf.num_vars = 2; univs = [ 0 ]; exists = [ (1, []) ]; clauses = [ [ 1; 2 ] ] }
  in
  let calls = ref [] in
  let config = { Dqbf.Preprocess.default_config with Dqbf.Preprocess.inproc = Inproc.Off } in
  match Dqbf.Preprocess.run ~config ~on_inproc:(fun o -> calls := o :: !calls) pcnf with
  | Dqbf.Preprocess.Unsat -> Alcotest.fail "not unsat"
  | Dqbf.Preprocess.Formula (f, _) -> (
      check "matrix not reduced" false (M.is_true (F.matrix f));
      match !calls with
      | [ Inproc.Simplified res ] ->
          check "no steps" true (res.Inproc.steps = []);
          check_int "no rounds" 0 res.Inproc.stats.Inproc.rounds
      | _ -> Alcotest.fail "on_inproc must fire exactly once, with Simplified")

let test_preprocess_equiv_universal_unsat () =
  (* y = x forced but x not in D_y: unsatisfiable *)
  let pcnf =
    {
      Dqbf.Pcnf.num_vars = 2;
      univs = [ 0 ];
      exists = [ (1, []) ];
      clauses = [ [ 1; -2 ]; [ -1; 2 ] ];
    }
  in
  check "unsat" true (Dqbf.Preprocess.run pcnf = Dqbf.Preprocess.Unsat)

let test_preprocess_equiv_merge_deps () =
  (* y2(x1) = y3(x2) forced: representative keeps the intersection (empty) *)
  let pcnf =
    {
      Dqbf.Pcnf.num_vars = 4;
      univs = [ 0; 1 ];
      exists = [ (2, [ 0 ]); (3, [ 1 ]) ];
      clauses = [ [ 3; -4 ]; [ -3; 4 ]; [ 3; 1; 2 ] ];
    }
  in
  let f, stats = preprocess_with_engine_stats pcnf in
  check_int "one merge" 1 stats.Inproc.scc_merges;
  (* the merged variable's dependency set becomes empty, so universal
     reduction strips the remaining clause down to a unit, which is then
     propagated: the whole formula collapses to true *)
  check_int "unit propagated" 1 stats.Inproc.units;
  check "matrix true" true (M.is_true (F.matrix f))

let test_preprocess_gate_detection () =
  (* Tseitin AND gate g = a & b (vars a=1, b=2, g=3), plus a ternary use
     clause (g | a | b) that matches no gate pattern itself *)
  let pcnf =
    {
      Dqbf.Pcnf.num_vars = 4;
      univs = [ 0 ];
      exists = [ (1, [ 0 ]); (2, [ 0 ]); (3, [ 0 ]) ];
      clauses = [ [ -4; 2 ]; [ -4; 3 ]; [ 4; -2; -3 ]; [ 4; 2; 3 ] ];
    }
  in
  (* inproc off: this test exercises the gate detector on the exact
     Tseitin clause pattern, which the engine's self-subsumption rewrites *)
  let config =
    { Dqbf.Preprocess.default_config with Dqbf.Preprocess.inproc = Inproc.Off }
  in
  match Dqbf.Preprocess.run ~config pcnf with
  | Dqbf.Preprocess.Unsat -> Alcotest.fail "not unsat"
  | Dqbf.Preprocess.Formula (f, stats) ->
      check_int "one gate" 1 stats.Dqbf.Preprocess.gates;
      check "g gone from prefix" false (F.is_existential f 3);
      (* semantics: exists a b: (a&b) | a | b  -- satisfiable *)
      check "still satisfiable" true (Dqbf.Reference.by_expansion f)

let test_preprocess_xor_gate () =
  (* Tseitin XOR gate g = a ^ b: four all-odd clauses, plus a use (g | a) *)
  let pcnf =
    {
      Dqbf.Pcnf.num_vars = 4;
      univs = [ 0 ];
      exists = [ (1, [ 0 ]); (2, [ 0 ]); (3, [ 0 ]) ];
      clauses =
        [ [ -4; 2; 3 ]; [ -4; -2; -3 ]; [ 4; -2; 3 ]; [ 4; 2; -3 ]; [ 4; 2 ] ];
    }
  in
  let reference = Dqbf.Reference.by_expansion (Dqbf.Pcnf.to_formula pcnf) in
  let config =
    { Dqbf.Preprocess.default_config with Dqbf.Preprocess.inproc = Inproc.Off }
  in
  match Dqbf.Preprocess.run ~config pcnf with
  | Dqbf.Preprocess.Unsat -> Alcotest.fail "not unsat"
  | Dqbf.Preprocess.Formula (f, stats) ->
      check "xor gate found" true (stats.Dqbf.Preprocess.gates >= 1);
      check "semantics preserved" reference (Dqbf.Reference.by_expansion f)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dqbf"
    [
      ( "known",
        [
          Alcotest.test_case "example 1 sat" `Quick test_example1_sat;
          Alcotest.test_case "example 1 unsat" `Quick test_example1_unsat;
          Alcotest.test_case "example 1 dependency graph" `Quick test_example1_depgraph;
          Alcotest.test_case "acyclic prefix construction" `Quick test_acyclic_prefix;
          Alcotest.test_case "ordered queue" `Quick test_ordered_queue;
        ] );
      ("references", qsuite [ prop_expansion_vs_skolem ]);
      ( "eliminations",
        qsuite [ prop_thm1_preserves; prop_thm1_repeated; prop_thm2_preserves ]
        @ [ Alcotest.test_case "Theorem 2 takes the cheapest first" `Quick test_thm2_cheapest_first ]
        @ qsuite
             [
               prop_unitpure_preserves;
               prop_prune_preserves;
               prop_innermost_preserves;
               prop_scan_reaches_support;
               prop_shared_scan;
             ] );
      ("depgraph", qsuite [ prop_acyclic_matches_pairs ]);
      ( "elimset",
        qsuite [ prop_elimset_linearizes; prop_elimset_minimum; prop_greedy_linearizes ] );
      ( "pcnf",
        [
          Alcotest.test_case "roundtrip" `Quick test_pcnf_roundtrip;
          Alcotest.test_case "e-line dependencies" `Quick test_pcnf_e_line_deps;
          Alcotest.test_case "validation errors" `Quick test_pcnf_validate_errors;
          Alcotest.test_case "parse errors" `Quick test_pcnf_parse_errors;
          Alcotest.test_case "accepted layouts" `Quick test_pcnf_parse_accepts;
          Alcotest.test_case "frontend-sized roundtrip" `Quick test_pcnf_roundtrip_frontend;
        ]
        @ qsuite [ prop_pcnf_to_formula_matches ] );
      ( "preprocess",
        [
          Alcotest.test_case "universal unit refutes" `Quick test_preprocess_universal_unit;
          Alcotest.test_case "universal reduction" `Quick test_preprocess_universal_reduction;
          Alcotest.test_case "off applies no rule" `Quick test_preprocess_off_applies_no_rule;
          Alcotest.test_case "equivalence with universal" `Quick test_preprocess_equiv_universal_unsat;
          Alcotest.test_case "equivalence merges deps" `Quick test_preprocess_equiv_merge_deps;
          Alcotest.test_case "gate detection" `Quick test_preprocess_gate_detection;
          Alcotest.test_case "xor gate detection" `Quick test_preprocess_xor_gate;
        ]
        @ qsuite [ prop_preprocess_preserves ] );
    ]
