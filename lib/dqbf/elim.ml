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

let c_quantifications = Obs.Metrics.counter "qbf.elim.quantifications"

(* Quantify the cheapest variable of [block] (the fewest cone nodes depend
   on it, ties to the first in prefix order) with the quantifier localized
   (see [M.exists_localized]); a universal one through
   forall v.phi = not (exists v. not phi), Theorem 1 with nothing to copy *)
let quantify_cheapest ?trail f block =
  let man = Formula.man f in
  let matrix = Formula.matrix f in
  if block = [] then invalid_arg "Dqbf.Elim.innermost";
  let costs, cone = M.support_counts man matrix block in
  let best = ref 0 in
  Array.iteri (fun i c -> if c < costs.(!best) then best := i) costs;
  let v = List.nth block !best in
  if Formula.is_existential f v then begin
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

let theorem2 ?trail f =
  let univs = Formula.universals f in
  match
    List.filter_map
      (fun (y, d) -> if Bitset.equal d univs then Some y else None)
      (Formula.existentials f)
  with
  | [] -> false
  | full ->
      quantify_cheapest ?trail f full;
      Obs.Metrics.incr c_exist_elims;
      true

let innermost ?trail f =
  Obs.Metrics.incr c_quantifications;
  (* the innermost block: the existentials that depend on every universal,
     else the universals no existential depends on *)
  if not (theorem2 ?trail f) then
    let exs = Formula.existentials f in
    quantify_cheapest ?trail f
      (Bitset.to_list
         (Bitset.diff (Formula.universals f)
            (List.fold_left (fun acc (_, d) -> Bitset.union acc d) Bitset.empty exs)))

let unit_pure_round ?trail f scan =
  let man = Formula.man f in
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
    scan;
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

let prune_prefix ?trail f scan =
  let support = Bitset.of_list (List.map fst scan) in
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
