open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

type stats = {
  mutable rounds : int;
  mutable ground_vars : int;
  mutable instance_nodes : int;
  mutable total_time : float;
}

let new_stats () = { rounds = 0; ground_vars = 0; instance_nodes = 0; total_time = 0.0 }

let solve_core ~want_model ?(budget = Budget.unlimited) ?node_limit ~stats f =
  let univs = Bitset.to_list (F.universals f) in
  let n = List.length univs in
  let exists = F.existentials f in
  (* fresh ids for ground variables, above all existing variables *)
  let next = ref 0 in
  List.iter (fun v -> next := max !next (v + 1)) univs;
  List.iter (fun (y, _) -> next := max !next (y + 1)) exists;
  (* the matrix copied into a manager of its own *)
  let copy_matrix () =
    let man = M.create ?node_limit () in
    match M.rebuild (F.man f) [ F.matrix f ] man ~leaf:(M.input man) with
    | [ r ] -> (man, r)
    | _ -> assert false
  in
  (* persistent ground instance: manager + incremental SAT encoding *)
  let gman, gmatrix = copy_matrix () in
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
  (* the candidate Skolem table of [y] in [man], read off the ground
     model: an OR over the model-true entries of an indicator of each
     projection *)
  let table_circuit man y deps =
    let dep_list = Bitset.to_list deps in
    let entries =
      Hashtbl.fold
        (fun (y', proj) v acc ->
          if y' = y && Sat.Solver.value solver (sat_var_of v) then proj :: acc else acc)
        ground []
    in
    let indicator proj =
      M.mk_and_list man
        (List.mapi (fun i x -> M.apply_sign (M.input man x) ~neg:(proj land (1 lsl i) = 0)) dep_list)
    in
    M.mk_or_list man (List.map indicator entries)
  in
  (* candidate-check: substitute the tables into the matrix, search for a
     falsifying universal assignment *)
  let counterexample () =
    let cman, cmatrix = copy_matrix () in
    let subst v =
      if F.is_universal f v then None
      else Option.map (table_circuit cman v) (List.assoc_opt v exists)
    in
    match Aig.Cnf_enc.solve ~budget cman (M.compl_ (M.compose cman cmatrix subst)) with
    | None -> None
    | Some value ->
        let bits = ref 0 in
        List.iteri (fun i x -> if value x then bits := !bits lor (1 lsl i)) univs;
        Some (sigma_of_bits !bits)
  in
  (* on SAT: turn the candidate tables of the final round into functions *)
  let build_model () =
    let model = Dqbf.Skolem.create () in
    List.iter
      (fun (y, deps) -> Dqbf.Skolem.define model y (table_circuit (Dqbf.Skolem.man model) y deps))
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
  Option.get !answer

(* [stats] is filled in as the solve goes, so a caller that passed it
   reads the counters of a solve that raised too *)
let timed ?(stats = new_stats ()) solve =
  let t_start = Budget.now () in
  Fun.protect
    ~finally:(fun () -> stats.total_time <- Budget.now () -. t_start)
    (fun () -> (solve ~stats, stats))

let solve ?budget ?node_limit ?stats f =
  let (answer, _), stats = timed ?stats (solve_core ~want_model:false ?budget ?node_limit f) in
  (answer, stats)

let solve_with_model ?budget ?node_limit f = timed (solve_core ~want_model:true ?budget ?node_limit f)

let solve_pcnf ?budget ?node_limit ?stats pcnf =
  solve ?budget ?node_limit ?stats (Dqbf.Pcnf.to_formula pcnf)
