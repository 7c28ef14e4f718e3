open Hqs_util
module M = Aig.Man
module UP = Aig.Unitpure

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------ formula AST as a model *)

type form =
  | Cst of bool
  | V of int
  | Not of form
  | And of form * form
  | Or of form * form
  | Xor of form * form

let rec eval_form env = function
  | Cst b -> b
  | V i -> env i
  | Not f -> not (eval_form env f)
  | And (f, g) -> eval_form env f && eval_form env g
  | Or (f, g) -> eval_form env f || eval_form env g
  | Xor (f, g) -> eval_form env f <> eval_form env g

let rec build man = function
  | Cst b -> if b then M.true_ else M.false_
  | V i -> M.input man i
  | Not f -> M.compl_ (build man f)
  | And (f, g) -> M.mk_and man (build man f) (build man g)
  | Or (f, g) -> M.mk_or man (build man f) (build man g)
  | Xor (f, g) -> M.mk_xor man (build man f) (build man g)

let max_vars = 5

let form_gen =
  QCheck.Gen.(
    sized_size (int_bound 7) (fix (fun self n ->
        if n = 0 then oneof [ map (fun b -> Cst b) bool; map (fun i -> V i) (int_bound (max_vars - 1)) ]
        else
          oneof
            [
              map (fun i -> V i) (int_bound (max_vars - 1));
              map (fun f -> Not f) (self (n - 1));
              map2 (fun f g -> And (f, g)) (self (n / 2)) (self (n / 2));
              map2 (fun f g -> Or (f, g)) (self (n / 2)) (self (n / 2));
              map2 (fun f g -> Xor (f, g)) (self (n / 2)) (self (n / 2));
            ])))

let rec form_print = function
  | Cst b -> string_of_bool b
  | V i -> Printf.sprintf "v%d" i
  | Not f -> Printf.sprintf "!(%s)" (form_print f)
  | And (f, g) -> Printf.sprintf "(%s & %s)" (form_print f) (form_print g)
  | Or (f, g) -> Printf.sprintf "(%s | %s)" (form_print f) (form_print g)
  | Xor (f, g) -> Printf.sprintf "(%s ^ %s)" (form_print f) (form_print g)

let form_arb = QCheck.make ~print:form_print form_gen

let env_of_bits bits i = bits land (1 lsl i) <> 0

let forall_envs ?(vars = max_vars) f =
  let ok = ref true in
  for bits = 0 to (1 lsl vars) - 1 do
    if not (f (env_of_bits bits)) then ok := false
  done;
  !ok

(* ----------------------------------------------------------- basic rules *)

let test_constants () =
  let m = M.create () in
  let a = M.input m 0 in
  check_int "false and x" M.false_ (M.mk_and m M.false_ a);
  check_int "true and x" a (M.mk_and m M.true_ a);
  check_int "x and x" a (M.mk_and m a a);
  check_int "x and !x" M.false_ (M.mk_and m a (M.compl_ a));
  check_int "or of complements" M.true_ (M.mk_or m a (M.compl_ a))

let test_strash_sharing () =
  let m = M.create () in
  let a = M.input m 0 and b = M.input m 1 in
  let x = M.mk_and m a b in
  let y = M.mk_and m b a in
  check_int "commutative sharing" x y;
  check_int "num ands" 1 (M.num_ands m)

let test_input_idempotent () =
  let m = M.create () in
  let a = M.input m 3 in
  let a' = M.input m 3 in
  check_int "same input node" a a';
  check_int "var id" 3 (M.var_of_input m a)

let test_node_limit () =
  let m = M.create ~node_limit:4 () in
  let a = M.input m 0 and b = M.input m 1 in
  (* nodes: const, a, b = 3; one AND allowed, the next must blow *)
  let _ab = M.mk_and m a b in
  Alcotest.check_raises "limit" Budget.Out_of_memory_budget (fun () ->
      ignore (M.mk_and m (M.compl_ a) b))

(* ------------------------------------------------------------- semantics *)

let prop_eval_matches_model =
  QCheck.Test.make ~name:"aig eval matches formula" ~count:500 form_arb (fun f ->
      let m = M.create () in
      let root = build m f in
      forall_envs (fun env -> M.eval m root env = eval_form env f))

let prop_cofactor =
  QCheck.Test.make ~name:"cofactor semantics" ~count:300
    (QCheck.triple form_arb (QCheck.int_bound (max_vars - 1)) QCheck.bool)
    (fun (f, v, b) ->
      let m = M.create () in
      let root = build m f in
      let cof = M.cofactor m root ~var:v ~value:b in
      forall_envs (fun env ->
          let env' i = if i = v then b else env i in
          M.eval m cof env = eval_form env' f))

let prop_cofactor_removes_var =
  QCheck.Test.make ~name:"cofactor removes the variable" ~count:300
    (QCheck.pair form_arb (QCheck.int_bound (max_vars - 1))) (fun (f, v) ->
      let m = M.create () in
      let root = build m f in
      let cof = M.cofactor m root ~var:v ~value:true in
      not (Bitset.mem v (M.support m cof)))

let prop_quantify =
  QCheck.Test.make ~name:"exists/forall semantics" ~count:300
    (QCheck.pair form_arb (QCheck.int_bound (max_vars - 1))) (fun (f, v) ->
      let m = M.create () in
      let root = build m f in
      let ex = M.exists m root ~var:v and fa = M.forall m root ~var:v in
      forall_envs (fun env ->
          let ef b i = if i = v then b else env i in
          M.eval m ex env = (eval_form (ef false) f || eval_form (ef true) f)
          && M.eval m fa env = (eval_form (ef false) f && eval_form (ef true) f)))

(* Each localized rule, and its dual through ∀v.f = ¬∃v.¬f (the way
   [Dqbf.Elim.innermost] quantifies universals), must equal plain
   cofactoring. *)
let prop_localized_quantify =
  QCheck.Test.make ~name:"localized quantification matches exists/forall" ~count:500
    (QCheck.pair form_arb (QCheck.int_bound (max_vars - 1))) (fun (f, v) ->
      let m = M.create () in
      let root = build m f in
      let ex = M.exists m root ~var:v and fa = M.forall m root ~var:v in
      let guarded m r ~var =
        let r', size = M.exists_localized m r ~var ~cone:(M.cone_size m r) in
        if size <> M.cone_size m r' then failwith "exists_localized: wrong cone size";
        r'
      in
      List.for_all
        (fun rule ->
          let ex' = rule m root ~var:v and fa' = M.compl_ (rule m (M.compl_ root) ~var:v) in
          forall_envs (fun env -> M.eval m ex' env = M.eval m ex env && M.eval m fa' env = M.eval m fa env))
        [ M.exists_root; M.exists_pushed; guarded ])

let test_exists_keeps_free_conjuncts () =
  (* ∃x1. x0 ∧ (x1 ∨ x2) ∧ (x3 ⊕ x4) ∧ (¬x1 ∨ x3): the conjuncts without x1
     must come back as the very same literals *)
  let m = M.create () in
  let x i = M.input m i in
  let a = x 0 and c = M.mk_xor m (x 3) (x 4) in
  let root = M.mk_and_list m [ a; M.mk_or m (x 1) (x 2); c; M.mk_or m (M.compl_ (x 1)) (x 3) ] in
  let ex = M.exists m root ~var:1 in
  List.iter
    (fun (name, r) ->
      let conj = M.and_conjuncts m r in
      List.iter (fun l -> check (name ^ ": free conjunct kept") true (List.mem l conj)) [ a; c ];
      check (name ^ ": exact") true (forall_envs (fun env -> M.eval m r env = M.eval m ex env)))
    [
      ("root-level", M.exists_root m root ~var:1);
      ("guarded", fst (M.exists_localized m root ~var:1 ~cone:(M.cone_size m root)));
    ]

let prop_compose =
  QCheck.Test.make ~name:"compose semantics" ~count:300
    (QCheck.triple form_arb form_arb (QCheck.int_bound (max_vars - 1)))
    (fun (f, g, v) ->
      let m = M.create () in
      let root = build m f in
      let sub = build m g in
      let comp = M.compose m root (fun i -> if i = v then Some sub else None) in
      forall_envs (fun env ->
          let env' i = if i = v then eval_form env g else env i in
          M.eval m comp env = eval_form env' f))

let prop_support_sound =
  QCheck.Test.make ~name:"semantic dependence implies support" ~count:300 form_arb
    (fun f ->
      let m = M.create () in
      let root = build m f in
      let sup = M.support m root in
      (* if flipping v changes the value somewhere, v must be in support *)
      let ok = ref true in
      for v = 0 to max_vars - 1 do
        if not (Bitset.mem v sup) then begin
          let depends =
            not
              (forall_envs (fun env ->
                   let env' i = if i = v then not (env i) else env i in
                   eval_form env f = eval_form env' f))
          in
          if depends then ok := false
        end
      done;
      !ok)

let prop_compact =
  QCheck.Test.make ~name:"compact preserves semantics" ~count:300 form_arb (fun f ->
      let m = M.create () in
      let root = build m f in
      (* create garbage *)
      let _garbage = build m (Xor (V 0, V 1)) in
      let m', roots' = M.compact m [ root ] in
      let root' = List.hd roots' in
      M.num_nodes m' <= M.num_nodes m
      && forall_envs (fun env -> M.eval m' root' env = eval_form env f))

(* ------------------------------------------------------------- traversal *)

(* A random AIG with shared subgraphs over [inputs] variables: ANDs over
   random earlier literals (the constants among them with [~consts]),
   plus a few random roots. *)
let random_aig ?(inputs = max_vars) ?(consts = false) seed =
  let rng = Random.State.make [| seed |] in
  let m = M.create () in
  let lits =
    ref (Array.append (if consts then [| M.false_ |] else [||]) (Array.init inputs (M.input m)))
  in
  for _ = 1 to 5 + Random.State.int rng 40 do
    let pick () =
      let a = !lits in
      M.apply_sign a.(Random.State.int rng (Array.length a)) ~neg:(Random.State.bool rng)
    in
    let l = M.mk_and m (pick ()) (pick ()) in
    lits := Array.append !lits [| l |]
  done;
  let a = !lits in
  let roots =
    List.init (1 + Random.State.int rng 4) (fun _ ->
        M.apply_sign a.(Random.State.int rng (Array.length a)) ~neg:(Random.State.bool rng))
  in
  (m, roots, rng)

(* the depth-first search iter_cone must reproduce node for node *)
let reference_cone m roots =
  let visited = Hashtbl.create 64 and stack = Stack.create () and acc = ref [] in
  List.iter (fun r -> Stack.push (M.node_of r, false) stack) roots;
  while not (Stack.is_empty stack) do
    let n, expanded = Stack.pop stack in
    if expanded then acc := n :: !acc
    else if not (Hashtbl.mem visited n) then begin
      Hashtbl.add visited n ();
      Stack.push (n, true) stack;
      if M.is_and m (2 * n) then begin
        let e0, e1 = M.fanins m (2 * n) in
        Stack.push (M.node_of e0, false) stack;
        Stack.push (M.node_of e1, false) stack
      end
    end
  done;
  List.rev !acc

let cone_list m roots =
  let acc = ref [] in
  M.iter_cone m roots (fun n -> acc := n :: !acc);
  List.rev !acc

let same_ints = List.equal Int.equal

let prop_iter_cone_order =
  QCheck.Test.make ~name:"iter_cone order matches the reference DFS" ~count:300 QCheck.small_nat
    (fun seed ->
      let m, roots, _ = random_aig seed in
      same_ints (cone_list m roots) (reference_cone m roots))

let prop_iter_cone_nested =
  QCheck.Test.make ~name:"iter_cone nested in its own callback" ~count:200 QCheck.small_nat
    (fun seed ->
      let m, roots, _ = random_aig seed in
      let expected = reference_cone m roots in
      let ok = ref true and outer = ref [] in
      M.iter_cone m roots (fun n ->
          outer := n :: !outer;
          (* grow the manager and walk other cones while the outer walk
             runs: the new node's, and the roots' in reverse order *)
          let fresh = M.mk_and m (M.input m 0) (M.compl_ (2 * n)) in
          List.iter
            (fun rs -> if not (same_ints (cone_list m rs) (reference_cone m rs)) then ok := false)
            [ [ fresh ]; List.rev roots ]);
      !ok && same_ints (List.rev !outer) expected)

let prop_compose_list =
  QCheck.Test.make ~name:"compose_list equals compose per root" ~count:300 QCheck.small_nat
    (fun seed ->
      let m, roots, rng = random_aig seed in
      let images =
        Array.init max_vars (fun _ ->
            match Random.State.int rng 4 with
            | 0 -> None
            | 1 -> Some M.true_
            | 2 -> Some M.false_
            | _ -> Some (M.apply_sign (M.input m (Random.State.int rng max_vars)) ~neg:true))
      in
      let subst v = images.(v) in
      let batched = M.compose_list m roots subst in
      same_ints batched (List.map (fun r -> M.compose m r subst) roots))

let prop_depends_on =
  QCheck.Test.make ~name:"depends_on agrees with support" ~count:300 QCheck.small_nat (fun seed ->
      let m, roots, _ = random_aig seed in
      List.for_all
        (fun v ->
          List.equal Bool.equal (M.depends_on m roots v)
            (List.map (fun r -> Bitset.mem v (M.support m r)) roots))
        (List.init (max_vars + 2) Fun.id))

(* A random AIG over up to 200 variables, so a block of variables spans
   several 62-bit words: ANDs over random earlier literals, and a root
   that is sometimes a constant. The block mixes variables of the cone,
   variables whose input is outside it and variables with no input. *)
let random_wide_aig seed =
  let rng = Random.State.make [| seed |] in
  let m = M.create () in
  let nv = 1 + Random.State.int rng 200 in
  let lits =
    ref (Array.init (1 + Random.State.int rng 100) (fun _ -> M.input m (Random.State.int rng nv)))
  in
  for _ = 1 to Random.State.int rng 300 do
    let pick () =
      let a = !lits in
      M.apply_sign a.(Random.State.int rng (Array.length a)) ~neg:(Random.State.bool rng)
    in
    lits := Array.append !lits [| M.mk_and m (pick ()) (pick ()) |]
  done;
  let root =
    match Random.State.int rng 10 with
    | 0 -> M.false_
    | 1 -> M.true_
    | _ ->
        let a = !lits in
        M.apply_sign a.(Random.State.int rng (Array.length a)) ~neg:(Random.State.bool rng)
  in
  let block = List.filter (fun _ -> Random.State.int rng 3 > 0) (List.init (nv + 10) Fun.id) in
  (m, root, block)

(* [support_counts] against a count of the cone nodes whose support
   contains each variable *)
let prop_support_counts =
  QCheck.Test.make ~name:"support_counts equals a brute count"
    ~count:300 QCheck.small_nat (fun seed ->
      let m, root, block = random_wide_aig seed in
      let supports = List.map (fun n -> M.support m (2 * n)) (cone_list m [ root ]) in
      let costs, cone = M.support_counts m root block in
      cone = M.cone_size m root
      && List.equal Int.equal (Array.to_list costs)
           (List.map
              (fun v -> List.length (List.filter (fun s -> Bitset.mem v s) supports))
              block))

(* the substitution as a plain rebuild of every node with [mk_and] *)
let reference_compose m roots subst =
  let memo = Hashtbl.create 64 in
  let value e = M.apply_sign (Hashtbl.find memo (M.node_of e)) ~neg:(M.is_compl e) in
  M.iter_cone m roots (fun n ->
      let l = 2 * n in
      Hashtbl.replace memo n
        (if M.is_const l then M.false_
         else if M.is_input m l then Option.value (subst (M.var_of_input m l)) ~default:l
         else
           let a, b = M.fanins m l in
           M.mk_and m (value a) (value b)));
  List.map value roots

let strash_hits = Obs.Metrics.counter "aig.strash_hits"
let strash_misses = Obs.Metrics.counter "aig.strash_misses"

(* the result of [run] on a manager, its node count and strash deltas *)
let with_strash_deltas m run =
  let hits = Obs.Metrics.counter_value strash_hits
  and misses = Obs.Metrics.counter_value strash_misses in
  let r = run m in
  ( r,
    M.num_nodes m,
    Obs.Metrics.counter_value strash_hits - hits,
    Obs.Metrics.counter_value strash_misses - misses )

(* [compose], [cofactor] and [compose_list] keep unchanged nodes in place,
   yet return, build and count exactly what the rebuild does; two copies
   of one random AIG, one per side *)
let prop_compose_in_place =
  QCheck.Test.make ~name:"in-place compose matches a rebuild" ~count:300 QCheck.small_nat
    (fun seed ->
      let setup () =
        let m, roots, rng = random_aig seed in
        let images =
          Array.init max_vars (fun _ ->
              match Random.State.int rng 5 with
              | 0 | 1 -> None
              | 2 -> Some (if Random.State.bool rng then M.true_ else M.false_)
              | 3 -> Some (M.compl_ (M.input m (Random.State.int rng max_vars)))
              | _ -> Some (M.mk_and m (M.input m 0) (M.input m (Random.State.int rng max_vars))))
        in
        let var = Random.State.int rng max_vars and value = Random.State.bool rng in
        (m, roots, (fun v -> images.(v)), var, value)
      in
      let m, roots, subst, var, value = setup () in
      let m', roots', subst', _, _ = setup () in
      let c = if value then M.true_ else M.false_ in
      let root = List.hd roots and root' = List.hd roots' in
      with_strash_deltas m (fun m -> M.compose_list m roots subst)
      = with_strash_deltas m' (fun m -> reference_compose m roots' subst')
      && with_strash_deltas m (fun m -> M.compose m root subst)
         = with_strash_deltas m' (fun m -> List.hd (reference_compose m [ root' ] subst'))
      && with_strash_deltas m (fun m -> M.cofactor m root ~var ~value)
         = with_strash_deltas m' (fun m ->
               List.hd (reference_compose m [ root' ] (fun v -> if v = var then Some c else None))))

(* -------------------------------------------------------- decompositions *)

let prop_and_conjuncts =
  QCheck.Test.make ~name:"and_conjuncts recombine to the root" ~count:300 form_arb (fun f ->
      let m = M.create () in
      let root = build m f in
      let parts = M.and_conjuncts m root in
      let again = M.mk_and_list m parts in
      (* recombination is semantically the root (structurally it may differ
         because of rebalancing) *)
      forall_envs (fun env -> M.eval m again env = M.eval m root env)
      && List.for_all
           (fun part -> forall_envs (fun env -> (not (M.eval m root env)) || M.eval m part env))
           parts)

let prop_or_disjuncts =
  QCheck.Test.make ~name:"or_disjuncts recombine to the root" ~count:300 form_arb (fun f ->
      let m = M.create () in
      let root = build m f in
      let parts = M.or_disjuncts m root in
      let again = M.mk_or_list m parts in
      forall_envs (fun env -> M.eval m again env = M.eval m root env))

(* ------------------------------------------------------------- unit/pure *)

let scan_of f =
  let m = M.create () in
  let root = build m f in
  (m, root, UP.scan m root)

let status_of scans v = try List.assoc v scans with Not_found -> UP.no_status

let test_unitpure_literal () =
  let _, _, s = scan_of (V 0) in
  let st = status_of s 0 in
  check "v: pos unit" true st.UP.pos_unit;
  check "v: pos pure" true st.UP.pos_pure;
  check "v: not neg unit" false st.UP.neg_unit;
  let _, _, s = scan_of (Not (V 0)) in
  let st = status_of s 0 in
  check "!v: neg unit" true st.UP.neg_unit;
  check "!v: neg pure" true st.UP.neg_pure

let test_unitpure_conj () =
  let _, _, s = scan_of (And (V 0, Not (V 1))) in
  let s0 = status_of s 0 and s1 = status_of s 1 in
  check "v0 pos unit" true s0.UP.pos_unit;
  check "v0 pos pure" true s0.UP.pos_pure;
  check "v1 neg unit" true s1.UP.neg_unit;
  check "v1 neg pure" true s1.UP.neg_pure

let test_unitpure_disj () =
  let _, _, s = scan_of (Or (V 0, V 1)) in
  let s0 = status_of s 0 in
  check "no unit through or" false s0.UP.pos_unit;
  check "pos pure through or" true s0.UP.pos_pure

let test_unitpure_xor () =
  let _, _, s = scan_of (Xor (V 0, V 1)) in
  let s0 = status_of s 0 in
  check "xor not pure" false (s0.UP.pos_pure || s0.UP.neg_pure);
  check "xor not unit" false (s0.UP.pos_unit || s0.UP.neg_unit)

let test_unitpure_cnf_structure () =
  (* the function of Fig. 1 built as a plain CNF AIG:
     (y1 | x1) & (y1 | x2) & (y2 | !x1) & (y2 | !x2); y1 and y2 are
     positive pure here, x1 and x2 are mixed *)
  let y1 = V 0 and y2 = V 1 and x1 = V 2 and x2 = V 3 in
  let f = And (And (Or (y1, x1), Or (y1, x2)), And (Or (y2, Not x1), Or (y2, Not x2))) in
  let _, _, s = scan_of f in
  check "y1 pos pure" true (status_of s 0).UP.pos_pure;
  check "y2 pos pure" true (status_of s 1).UP.pos_pure;
  check "x1 mixed" false ((status_of s 2).UP.pos_pure || (status_of s 2).UP.neg_pure);
  check "x2 mixed" false ((status_of s 3).UP.pos_pure || (status_of s 3).UP.neg_pure)

(* semantic validation of the syntactic claims, per Definition 5 *)
let prop_unitpure_sound =
  QCheck.Test.make ~name:"syntactic unit/pure implies semantic" ~count:500 form_arb
    (fun f ->
      let _, _, scans = scan_of f in
      List.for_all
        (fun (v, st) ->
          let sat value =
            (* is f[value/v] satisfiable? *)
            let found = ref false in
            for bits = 0 to (1 lsl max_vars) - 1 do
              let env i = if i = v then value else env_of_bits bits i in
              if eval_form env f then found := true
            done;
            !found
          in
          let implies_01 =
            (* f[0/v] -> f[1/v] valid? *)
            forall_envs (fun env ->
                let e b i = if i = v then b else env i in
                (not (eval_form (e false) f)) || eval_form (e true) f)
          in
          let implies_10 =
            forall_envs (fun env ->
                let e b i = if i = v then b else env i in
                (not (eval_form (e true) f)) || eval_form (e false) f)
          in
          ((not st.UP.pos_unit) || not (sat false))
          && ((not st.UP.neg_unit) || not (sat true))
          && ((not st.UP.pos_pure) || implies_01)
          && ((not st.UP.neg_pure) || implies_10))
        scans)

(* --------------------------------------------------------------- cnf enc *)

let prop_cnf_enc =
  QCheck.Test.make ~name:"cnf encoding agrees with eval" ~count:200 form_arb (fun f ->
      let m = M.create () in
      let root = build m f in
      let solver = Sat.Solver.create () in
      let enc = Aig.Cnf_enc.create solver in
      let out = Aig.Cnf_enc.sat_lit m enc root in
      forall_envs (fun env ->
          (* fix inputs with assumptions; out must be forced to eval value *)
          let assumptions =
            List.init max_vars (fun v ->
                Sat.Lit.apply_sign (Aig.Cnf_enc.sat_var_of_aig_var m enc v) ~neg:(not (env v)))
          in
          let expect = eval_form env f in
          let r = Sat.Solver.solve ~assumptions:(assumptions @ [ Sat.Lit.apply_sign out ~neg:(not expect) ]) solver in
          r = Sat.Solver.Sat))

let prop_rebuild =
  QCheck.Test.make ~name:"rebuild copies a cone node for node" ~count:300 QCheck.small_nat
    (fun seed ->
      let m, roots, _ = random_aig seed in
      List.for_all
        (fun r ->
          let dst = M.create () in
          let r' = List.hd (M.rebuild m [ r ] dst ~leaf:(M.input dst)) in
          M.num_ands dst = M.cone_size m r
          && forall_envs (fun env -> M.eval dst r' env = M.eval m r env))
        roots)

let prop_solve =
  QCheck.Test.make ~name:"solve agrees with exhaustive eval" ~count:300
    (QCheck.pair QCheck.small_nat (QCheck.int_range 1 8)) (fun (seed, inputs) ->
      let m, roots, _ = random_aig ~inputs ~consts:true seed in
      List.for_all
        (fun r ->
          match Aig.Cnf_enc.solve m r with
          | None -> forall_envs ~vars:inputs (fun env -> not (M.eval m r env))
          | Some value -> M.eval m r value)
        roots)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "aig"
    [
      ( "construction",
        [
          Alcotest.test_case "constant rules" `Quick test_constants;
          Alcotest.test_case "strash sharing" `Quick test_strash_sharing;
          Alcotest.test_case "input idempotent" `Quick test_input_idempotent;
          Alcotest.test_case "node limit" `Quick test_node_limit;
        ] );
      ( "semantics",
        qsuite
          [
            prop_eval_matches_model;
            prop_cofactor;
            prop_cofactor_removes_var;
            prop_quantify;
            prop_compose;
            prop_support_sound;
            prop_compact;
            prop_and_conjuncts;
            prop_or_disjuncts;
          ] );
      ( "localize",
        Alcotest.test_case "exists keeps free conjuncts" `Quick test_exists_keeps_free_conjuncts
        :: qsuite [ prop_localized_quantify ] );
      ( "unitpure",
        [
          Alcotest.test_case "literals" `Quick test_unitpure_literal;
          Alcotest.test_case "conjunction" `Quick test_unitpure_conj;
          Alcotest.test_case "disjunction" `Quick test_unitpure_disj;
          Alcotest.test_case "xor" `Quick test_unitpure_xor;
          Alcotest.test_case "paper CNF example" `Quick test_unitpure_cnf_structure;
        ]
        @ qsuite [ prop_unitpure_sound ] );
      ( "traversal",
        qsuite
          [
            prop_iter_cone_order;
            prop_iter_cone_nested;
            prop_compose_list;
            prop_depends_on;
            prop_support_counts;
            prop_compose_in_place;
            prop_rebuild;
          ] );
      ("cnf_enc", qsuite [ prop_cnf_enc; prop_solve ]);
    ]
