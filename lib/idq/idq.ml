open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

type stats = {
  mutable rounds : int;
  mutable ground_vars : int;
  mutable instance_nodes : int;
  mutable total_time : float;
}

(* copy a cone from [src] into [dst], preserving input variable ids *)
let import src root dst =
  let table = Hashtbl.create 256 in
  let get e = M.apply_sign (Hashtbl.find table (M.node_of e)) ~neg:(M.is_compl e) in
  M.iter_cone src [ root ] (fun n ->
      let v =
        if n = 0 then M.false_
        else if M.is_input src (n * 2) then M.input dst (M.var_of_input src (n * 2))
        else begin
          let e0, e1 = M.fanins src (n * 2) in
          M.mk_and dst (get e0) (get e1)
        end
      in
      Hashtbl.replace table n v);
  get root

let solve_core ~want_model ?(budget = Budget.unlimited) ?node_limit f =
  let t_start = Budget.now () in
  let stats = { rounds = 0; ground_vars = 0; instance_nodes = 0; total_time = 0.0 } in
  let univs = Bitset.to_list (F.universals f) in
  let n = List.length univs in
  let exists = F.existentials f in
  (* fresh ids for ground variables, above all existing variables *)
  let next = ref 0 in
  List.iter (fun v -> next := max !next (v + 1)) univs;
  List.iter (fun (y, _) -> next := max !next (y + 1)) exists;
  (* persistent ground instance: manager + incremental SAT encoding *)
  let gman = M.create ?node_limit () in
  let gmatrix = import (F.man f) (F.matrix f) gman in
  let solver = Sat.Solver.create () in
  let enc = Aig.Cnf_enc.create solver in
  let ground : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let ground_var y proj =
    match Hashtbl.find_opt ground (y, proj) with
    | Some v -> v
    | None ->
        let v = !next in
        incr next;
        Hashtbl.add ground (y, proj) v;
        stats.ground_vars <- stats.ground_vars + 1;
        v
  in
  let project sigma deps =
    let bits = ref 0 in
    List.iteri (fun i x -> if sigma x then bits := !bits lor (1 lsl i)) (Bitset.to_list deps);
    !bits
  in
  let sigma_of_bits bits =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i x -> Hashtbl.replace tbl x (bits land (1 lsl i) <> 0)) univs;
    fun x -> Hashtbl.find tbl x
  in
  (* add the ground copy of the matrix for one universal assignment *)
  let add_instance sigma =
    let subst v =
      if F.is_universal f v then Some (if sigma v then M.true_ else M.false_)
      else begin
        match List.assoc_opt v exists with
        | Some deps -> Some (M.input gman (ground_var v (project sigma deps)))
        | None -> None
      end
    in
    let copy = M.compose gman gmatrix subst in
    stats.instance_nodes <- M.num_nodes gman;
    Sat.Solver.add_clause solver [ Aig.Cnf_enc.sat_lit gman enc copy ]
  in
  (* SAT variable of a ground AIG input (it was encoded with its copy) *)
  let sat_var_of gv = Sat.Lit.var (Aig.Cnf_enc.sat_var_of_aig_var gman enc gv) in
  (* candidate-check: build Skolem tables from the model, search for a
     falsifying universal assignment *)
  let counterexample () =
    let cman = M.create ?node_limit () in
    let cmatrix = import (F.man f) (F.matrix f) cman in
    let table_circuit y deps =
      (* OR over the model-true entries of an indicator of each projection *)
      let dep_list = Bitset.to_list deps in
      let entries =
        Hashtbl.fold
          (fun (y', proj) v acc ->
            if y' = y && Sat.Solver.value solver (sat_var_of v) then proj :: acc else acc)
          ground []
      in
      let indicator proj =
        M.mk_and_list cman
          (List.mapi
             (fun i x ->
               M.apply_sign (M.input cman x) ~neg:(proj land (1 lsl i) = 0))
             dep_list)
      in
      M.mk_or_list cman (List.map indicator entries)
    in
    let subst v =
      if F.is_universal f v then None
      else begin
        match List.assoc_opt v exists with
        | Some deps -> Some (table_circuit v deps)
        | None -> None
      end
    in
    let falsified = M.compl_ (M.compose cman cmatrix subst) in
    if M.is_false falsified then None
    else if M.is_true falsified then Some (sigma_of_bits 0)
    else begin
      let csolver = Sat.Solver.create () in
      let cenc = Aig.Cnf_enc.create csolver in
      let out = Aig.Cnf_enc.sat_lit cman cenc falsified in
      Sat.Solver.add_clause csolver [ out ];
      match Sat.Solver.solve ~budget csolver with
      | Sat.Solver.Unsat -> None
      | Sat.Solver.Sat ->
          let bits = ref 0 in
          List.iteri
            (fun i x ->
              if Sat.Solver.lit_value csolver (Aig.Cnf_enc.sat_var_of_aig_var cman cenc x)
              then bits := !bits lor (1 lsl i))
            univs;
          Some (sigma_of_bits !bits)
    end
  in
  (* on SAT: turn the candidate tables of the final round into functions *)
  let build_model () =
    let model = Dqbf.Skolem.create () in
    let sman = Dqbf.Skolem.man model in
    List.iter
      (fun (y, deps) ->
        let dep_list = Bitset.to_list deps in
        let entries =
          Hashtbl.fold
            (fun (y', proj) v acc ->
              if y' = y && Sat.Solver.value solver (sat_var_of v) then proj :: acc else acc)
            ground []
        in
        let indicator proj =
          M.mk_and_list sman
            (List.mapi
               (fun i x -> M.apply_sign (M.input sman x) ~neg:(proj land (1 lsl i) = 0))
               dep_list)
        in
        Dqbf.Skolem.define model y (M.mk_or_list sman (List.map indicator entries)))
      exists;
    model
  in
  let answer = ref None in
  (* start from the all-false assignment *)
  let pending = ref [ sigma_of_bits 0 ] in
  while !answer = None do
    Budget.check budget;
    stats.rounds <- stats.rounds + 1;
    List.iter add_instance !pending;
    pending := [];
    match Sat.Solver.solve ~budget solver with
    | Sat.Solver.Unsat -> answer := Some (false, None)
    | Sat.Solver.Sat -> (
        if n = 0 then answer := Some (true, if want_model then Some (build_model ()) else None)
        else begin
          match counterexample () with
          | None -> answer := Some (true, if want_model then Some (build_model ()) else None)
          | Some sigma -> pending := [ sigma ]
        end)
  done;
  stats.total_time <- Budget.now () -. t_start;
  (Option.get !answer, stats)

let solve ?budget ?node_limit f =
  let (answer, _), stats = solve_core ~want_model:false ?budget ?node_limit f in
  (answer, stats)

let solve_with_model ?budget ?node_limit f = solve_core ~want_model:true ?budget ?node_limit f

let solve_pcnf ?budget ?node_limit pcnf =
  solve ?budget ?node_limit (Dqbf.Pcnf.to_formula pcnf)
