open Hqs_util
module M = Aig.Man
module UP = Aig.Unitpure

type config = { use_unitpure : bool; sat_shortcut : bool }

let default_config = { use_unitpure = true; sat_shortcut = true }

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

exception Decided of bool

type state = {
  mutable man : M.t;
  mutable root : M.lit;
  mutable last_size : int;
  on_nodes : int -> unit;
}

let compact_if_grown st =
  st.on_nodes (M.num_nodes st.man);
  if M.num_nodes st.man > (2 * st.last_size) + 1024 then begin
    let man, roots = M.compact st.man [ st.root ] in
    st.man <- man;
    st.root <- (match roots with [ r ] -> r | _ -> assert false);
    st.last_size <- M.num_nodes man
  end

(* one unit/pure sweep; returns true if anything was eliminated *)
let unitpure_step ~notify st prefix_quant =
  let scans = UP.scan st.man st.root in
  let subst : (int, M.lit) Hashtbl.t = Hashtbl.create 8 in
  let assign_exists v value =
    Hashtbl.replace subst v (if value then M.true_ else M.false_);
    notify v value
  in
  List.iter
    (fun (v, st_v) ->
      match prefix_quant v with
      | None -> () (* defensive: unbound variable, leave it alone *)
      | Some Prefix.Exists ->
          if st_v.UP.pos_unit && st_v.UP.neg_unit then raise (Decided false)
          else if st_v.UP.pos_unit || st_v.UP.pos_pure then assign_exists v true
          else if st_v.UP.neg_unit || st_v.UP.neg_pure then assign_exists v false
      | Some Prefix.Forall ->
          if st_v.UP.pos_unit || st_v.UP.neg_unit then raise (Decided false)
          else if st_v.UP.pos_pure then Hashtbl.replace subst v M.false_
          else if st_v.UP.neg_pure then Hashtbl.replace subst v M.true_)
    scans;
  if Hashtbl.length subst = 0 then false
  else begin
    st.root <- M.compose st.man st.root (Hashtbl.find_opt subst);
    true
  end

(* Quantify one variable with the quantifier localized (see
   [M.exists_localized]); a universal one through ∀v.f = ¬∃v.¬f. [cone] is
   the root's cone size. *)
let quantify_structured man root ~cone q v =
  let neg = q = Prefix.Forall in
  M.apply_sign (fst (M.exists_localized man (M.apply_sign root ~neg) ~var:v ~cone)) ~neg

(* returns the answer plus a variable valuation (meaningful on SAT) *)
let sat_check ~budget man root ~negate =
  let solver = Sat.Solver.create () in
  let enc = Aig.Cnf_enc.create solver in
  let out = Aig.Cnf_enc.sat_lit man enc root in
  let out = if negate then Sat.Lit.neg out else out in
  Sat.Solver.add_clause solver [ out ];
  match Sat.Solver.solve ~budget solver with
  | Sat.Solver.Sat ->
      (true, fun v -> Sat.Solver.lit_value solver (Aig.Cnf_enc.sat_var_of_aig_var man enc v))
  | Sat.Solver.Unsat -> (false, fun _ -> false)

let c_eliminations = Obs.Metrics.counter "qbf.elim.quantifications"

let solve ?(config = default_config) ?(budget = Budget.unlimited) ?on_define
    ?(on_nodes = fun _ -> ()) man0 root0 prefix =
  Obs.Span.with_ "qbf.elim" ~attrs:[ ("nodes", Obs.Int (M.num_nodes man0)) ]
  @@ fun () ->
  let man, roots = M.compact man0 [ root0 ] in
  let root = match roots with [ r ] -> r | _ -> assert false in
  let bound = Bitset.of_list (Prefix.variables prefix) in
  let free = Bitset.to_list (Bitset.diff (M.support man root) bound) in
  let prefix = ref (Prefix.normalize ((Prefix.Exists, free) :: prefix)) in
  let st = { man; root; last_size = M.num_nodes man; on_nodes } in
  on_nodes st.last_size;
  let recording = on_define <> None in
  let define v fn = match on_define with Some cb -> cb v st.man fn | None -> () in
  let define_const v b = define v (if b then M.true_ else M.false_) in
  try
    while true do
      Budget.check budget;
      if M.is_true st.root then raise (Decided true);
      if M.is_false st.root then raise (Decided false);
      let support = M.support st.man st.root in
      if recording then
        (* existentials leaving the support are don't-cares *)
        List.iter
          (fun (q, vs) ->
            if q = Prefix.Exists then
              List.iter (fun v -> if not (Bitset.mem v support) then define_const v false) vs)
          !prefix;
      prefix := Prefix.restrict !prefix ~keep:(fun v -> Bitset.mem v support);
      let quant_of v = Prefix.quant_of !prefix v in
      if config.use_unitpure && unitpure_step ~notify:define_const st quant_of then
        compact_if_grown st
      else begin
        match !prefix with
        | [] ->
            (* support is non-empty (root not const) but nothing is bound:
               cannot happen, every support var was added as existential *)
            assert false
        | [ (Prefix.Exists, vs) ] when config.sat_shortcut ->
            let answer, value = sat_check ~budget st.man st.root ~negate:false in
            if answer && recording then List.iter (fun v -> define_const v (value v)) vs;
            raise (Decided answer)
        | [ (Prefix.Forall, _) ] when config.sat_shortcut ->
            let counterexample, _ = sat_check ~budget st.man st.root ~negate:true in
            raise (Decided (not counterexample))
        | blocks ->
            (* eliminate one variable from the innermost block *)
            let rec split_last acc = function
              | [] -> assert false
              | [ last ] -> (List.rev acc, last)
              | b :: rest -> split_last (b :: acc) rest
            in
            let outer, (q, vs) = split_last [] blocks in
            let cost, cone = var_costs st.man st.root vs in
            let v =
              List.fold_left (fun best v -> if cost v < cost best then v else best)
                (List.hd vs) vs
            in
            if recording && q = Prefix.Exists then
              (* the standard choice function: pick 1 iff phi[1/v] holds *)
              define v (M.cofactor st.man st.root ~var:v ~value:true);
            Obs.Metrics.incr c_eliminations;
            st.root <- quantify_structured st.man st.root ~cone q v;
            prefix := outer @ [ (q, List.filter (fun w -> w <> v) vs) ];
            compact_if_grown st
      end
    done;
    assert false
  with
  | Decided answer -> answer
  | Budget.Out_of_memory_budget ->
      (* a node-limit raise leaves the manager at the limit *)
      on_nodes (M.num_nodes st.man);
      raise Budget.Out_of_memory_budget
