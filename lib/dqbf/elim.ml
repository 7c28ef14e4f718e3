open Hqs_util
module M = Aig.Man
module UP = Aig.Unitpure

let c_univ_elims = Obs.Metrics.counter "elim.universal"
let c_exist_elims = Obs.Metrics.counter "elim.existential"
let h_node_growth = Obs.Metrics.histogram "elim.node_growth"

let universal ?trail f x =
  if not (Formula.is_universal f x) then invalid_arg "Dqbf.Elim.universal";
  let nodes_before = M.num_nodes (Formula.man f) in
  Obs.Span.with_ "elim.expand" ~attrs:[ ("var", Obs.Int x); ("nodes", Obs.Int nodes_before) ]
  @@ fun () ->
  let man = Formula.man f in
  let matrix = Formula.matrix f in
  let e_x = List.filter (fun (_, d) -> Bitset.mem x d) (Formula.existentials f) in
  let phi0 = M.cofactor man matrix ~var:x ~value:false in
  let phi1 = M.cofactor man matrix ~var:x ~value:true in
  (* fresh primed copy of every existential that depends on x *)
  let copies = List.map (fun (y, _) -> (y, Formula.fresh_var f)) e_x in
  let subst = Hashtbl.create 16 in
  List.iter (fun (y, y') -> Hashtbl.replace subst y (M.input man y')) copies;
  let phi1' = M.compose man phi1 (Hashtbl.find_opt subst) in
  Formula.set_matrix f (M.mk_and man phi0 phi1');
  Formula.remove_universal f x;
  (* dependency sets already lost x; register the copies with the same sets *)
  List.iter (fun (y, y') -> Formula.add_existential f y' ~deps:(Formula.deps f y)) copies;
  (* the original s_y is s_y(x=0) when x=0 and s_y'(x=1) when x=1 *)
  Option.iter
    (fun trail -> List.iter (fun (y, y') -> Model_trail.record_ite trail ~y ~x ~y1:y') copies)
    trail;
  (* per-step event log: which universal was expanded and at what cost *)
  let growth = M.num_nodes man - nodes_before in
  Obs.Metrics.incr c_univ_elims;
  Obs.Metrics.observe h_node_growth (float_of_int growth);
  Obs.Span.event "elim.step"
    ~attrs:
      [
        ("var", Obs.Int x);
        ("copies", Obs.Int (List.length copies));
        ("node_growth", Obs.Int growth);
        ("nodes_after", Obs.Int (M.num_nodes man));
      ]
    ()

let existential ?trail f y =
  let deps = try Formula.deps f y with Not_found -> invalid_arg "Dqbf.Elim.existential" in
  if not (Bitset.equal deps (Formula.universals f)) then
    invalid_arg "Dqbf.Elim.existential: dependency set is not the full universal set";
  let man = Formula.man f in
  let matrix = Formula.matrix f in
  let phi0 = M.cofactor man matrix ~var:y ~value:false in
  let phi1 = M.cofactor man matrix ~var:y ~value:true in
  (* choice function: pick 1 exactly when phi[1/y] holds *)
  Option.iter (fun trail -> Model_trail.record_def trail man y phi1) trail;
  Formula.set_matrix f (M.mk_or man phi0 phi1);
  Formula.remove_existential f y;
  Obs.Metrics.incr c_exist_elims

let eliminate_full_existentials ?trail f =
  let count = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let support = M.support (Formula.man f) (Formula.matrix f) in
    let eligible =
      List.filter
        (fun (y, d) -> Bitset.mem y support && Bitset.equal d (Formula.universals f))
        (Formula.existentials f)
    in
    match eligible with
    | [] -> continue_ := false
    | l ->
        List.iter
          (fun (y, _) ->
            existential ?trail f y;
            incr count)
          l
  done;
  !count

(* For each variable in [vars], the number of cone nodes whose support
   contains it: a cheap proxy for elimination cost. [masks.(n)] is the set
   of positions (in [vars]) of the variables node [n] depends on. Also
   returns the cone's AND count, which the elimination guard needs. *)
let var_costs man root vars =
  let index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let counts = Array.make (List.length vars) 0 in
  let masks = Array.make (M.num_nodes man) Bitset.empty in
  let cone = ref 0 in
  M.iter_cone man [ root ] (fun n ->
      let mask =
        if n = 0 then Bitset.empty
        else if M.is_input man (n * 2) then begin
          match Hashtbl.find_opt index (M.var_of_input man (n * 2)) with
          | Some i -> Bitset.singleton i
          | None -> Bitset.empty
        end
        else begin
          incr cone;
          let e0, e1 = M.fanins man (n * 2) in
          let a = masks.(M.node_of e0) and b = masks.(M.node_of e1) in
          (* most nodes share a fanin's set: reuse it instead of copying *)
          if Bitset.subset a b then b else if Bitset.subset b a then a else Bitset.union a b
        end
      in
      Bitset.iter (fun i -> counts.(i) <- counts.(i) + 1) mask;
      masks.(n) <- mask);
  ((fun v -> match Hashtbl.find_opt index v with Some i -> counts.(i) | None -> 0), !cone)

let c_quantifications = Obs.Metrics.counter "qbf.elim.quantifications"

let innermost ?trail f =
  let man = Formula.man f in
  let matrix = Formula.matrix f in
  let univs = Formula.universals f in
  let exs = Formula.existentials f in
  (* the innermost block: the existentials that depend on every universal,
     else the universals no existential depends on *)
  let full = List.filter_map (fun (y, d) -> if Bitset.equal d univs then Some y else None) exs in
  let block =
    if full <> [] then full
    else
      Bitset.to_list
        (Bitset.diff univs (List.fold_left (fun acc (_, d) -> Bitset.union acc d) Bitset.empty exs))
  in
  let cost, cone = var_costs man matrix block in
  let first = match block with v :: _ -> v | [] -> invalid_arg "Dqbf.Elim.innermost" in
  let v = List.fold_left (fun best v -> if cost v < cost best then v else best) first block in
  Obs.Metrics.incr c_quantifications;
  (* the quantifier is localized (see [M.exists_localized]); a universal
     one through forall v.phi = not (exists v. not phi), Theorem 1 with
     nothing to copy *)
  if full <> [] then begin
    (* the choice function of Theorem 2: pick 1 exactly when phi[1/v] holds *)
    Option.iter
      (fun trail -> Model_trail.record_def trail man v (M.cofactor man matrix ~var:v ~value:true))
      trail;
    Formula.set_matrix f (fst (M.exists_localized man matrix ~var:v ~cone));
    Formula.remove_existential f v
  end
  else begin
    Formula.set_matrix f (M.compl_ (fst (M.exists_localized man (M.compl_ matrix) ~var:v ~cone)));
    Formula.remove_universal f v
  end

let unit_pure_round ?trail f =
  let man = Formula.man f in
  let scans = UP.scan man (Formula.matrix f) in
  let subst : (int, M.lit) Hashtbl.t = Hashtbl.create 8 in
  let unsat = ref false in
  let assign_exists v value =
    Hashtbl.replace subst v (if value then M.true_ else M.false_);
    Option.iter (fun trail -> Model_trail.record_const trail v value) trail
  in
  List.iter
    (fun (v, st) ->
      if not !unsat then begin
        if Formula.is_universal f v then begin
          if st.UP.pos_unit || st.UP.neg_unit then unsat := true
          else if st.UP.pos_pure then Hashtbl.replace subst v M.false_
          else if st.UP.neg_pure then Hashtbl.replace subst v M.true_
        end
        else if Formula.is_existential f v then begin
          if st.UP.pos_unit && st.UP.neg_unit then unsat := true
          else if st.UP.pos_unit || st.UP.pos_pure then assign_exists v true
          else if st.UP.neg_unit || st.UP.neg_pure then assign_exists v false
        end
      end)
    scans;
  if !unsat then begin
    Formula.set_matrix f M.false_;
    `Unsat
  end
  else if Hashtbl.length subst = 0 then `None
  else begin
    Formula.set_matrix f (M.compose man (Formula.matrix f) (Hashtbl.find_opt subst));
    (* the substituted variables left the support; prune them from the prefix *)
    Hashtbl.iter
      (fun v _ ->
        if Formula.is_universal f v then Formula.remove_universal f v
        else Formula.remove_existential f v)
      subst;
    `Eliminated (Hashtbl.length subst)
  end

let prune_prefix ?trail f =
  let support = M.support (Formula.man f) (Formula.matrix f) in
  Bitset.iter
    (fun x -> if not (Bitset.mem x support) then Formula.remove_universal f x)
    (Formula.universals f);
  List.iter
    (fun (y, _) ->
      if not (Bitset.mem y support) then begin
        Option.iter (fun trail -> Model_trail.record_const trail y false) trail;
        Formula.remove_existential f y
      end)
    (Formula.existentials f)
