open Hqs_util
module S = Sat.Solver
module L = Sat.Lit

module Sig_key = struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec loop i = i >= n || (a.(i) = b.(i) && loop (i + 1)) in
    loop 0

  (* explicit word mix: this is the class-candidate hot path, and unlike
     Hashtbl.hash it never truncates to a meaningful-word prefix *)
  let hash (s : t) =
    Array.fold_left (fun h w -> ((h * 486187739) + (w lxor (w lsr 31))) land max_int) 17 s
end

module Sig_tbl = Hashtbl.Make (Sig_key)

(* A simulation signature: [base_words] words of random patterns plus one
   word of counterexample patterns. Signatures are normalized so bit 0 of
   word 0 is clear; [normalize] reports whether it complemented. *)
let normalize s =
  if s.(0) land 1 = 1 then (Array.map lnot s, true) else (s, false)

let c_sim_rounds = Obs.Metrics.counter "fraig.sim_rounds"
let c_merges = Obs.Metrics.counter "fraig.merges"
let c_sat_checks = Obs.Metrics.counter "fraig.sat_checks"
let c_cex = Obs.Metrics.counter "fraig.cex"

(* Tuning constants. [max_propagations] bounds the SAT work of one sweep
   on its own solver's propagation count, so a sweep does the same work on
   every run; once it is spent, the rest of the sweep is a linear copy. *)
let seed = 0x51
let base_words = 6
let conflict_limit = 150
let max_candidates = 3
let max_propagations = 1_500_000

let reduce ?(budget = Budget.unlimited) man roots =
  Obs.Span.with_ "fraig.reduce" ~attrs:[ ("nodes", Obs.Int (Man.num_nodes man)) ]
  @@ fun () ->
  Obs.Metrics.incr c_sim_rounds (* the initial bit-parallel simulation *);
  let sat_checks = ref 0 in
  let words = base_words + 1 in
  let rng = Rng.create seed in
  let out = Man.create ?node_limit:(Man.node_limit man) () in
  (* per-variable random patterns; the last word holds counterexamples *)
  let var_words : (int, int array) Hashtbl.t = Hashtbl.create 64 in
  let word_of_var v =
    match Hashtbl.find_opt var_words v with
    | Some w -> w
    | None ->
        let w = Array.init words (fun i -> if i < base_words then Int64.to_int (Rng.next64 rng) else 0) in
        Hashtbl.add var_words v w;
        w
  in
  (* simulation vectors per [out] node, indexed by node id *)
  let sims : int array Vec.t = Vec.create ~dummy:[||] () in
  let node_sim n = Vec.get sims n in
  let edge_sim e =
    let s = node_sim (Man.node_of e) in
    if Man.is_compl e then Array.map lnot s else Array.copy s
  in
  let record_sim n s = begin
    Vec.grow_to sims (n + 1) [||];
    Vec.set sims n s
  end in
  let compute_sim n =
    if n = 0 then Array.make words 0
    else if Man.is_input out (n * 2) then Array.copy (word_of_var (Man.var_of_input out (n * 2)))
    else begin
      let e0, e1 = Man.fanins out (n * 2) in
      let s0 = node_sim (Man.node_of e0) and s1 = node_sim (Man.node_of e1) in
      Array.init words (fun i ->
          let a = if Man.is_compl e0 then lnot s0.(i) else s0.(i) in
          let b = if Man.is_compl e1 then lnot s1.(i) else s1.(i) in
          a land b)
    end
  in
  let ensure_sim n =
    if n >= Vec.size sims || Array.length (node_sim n) = 0 then record_sim n (compute_sim n)
  in
  (* SAT machinery over [out] *)
  let solver = S.create () in
  let enc = Cnf_enc.create solver in
  let classes : Man.lit list ref Sig_tbl.t = Sig_tbl.create 256 in
  let reps : Man.lit Vec.t = Vec.create ~dummy:0 () in
  let rep_nodes : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let register_rep lit =
    Vec.push reps lit;
    Hashtbl.replace rep_nodes (Man.node_of lit) ();
    let s, flipped = normalize (edge_sim lit) in
    let lit = Man.apply_sign lit ~neg:flipped in
    match Sig_tbl.find_opt classes s with
    | Some l -> l := lit :: !l
    | None -> Sig_tbl.add classes s (ref [ lit ])
  in
  (* counterexample refinement *)
  let pending_cex : (int * bool) list list ref = ref [] in
  let flush_cex () =
    Obs.Metrics.incr c_sim_rounds;
    let patterns = Array.of_list (List.rev !pending_cex) in
    pending_cex := [];
    Hashtbl.iter
      (fun v w ->
        let bits = ref 0 in
        Array.iteri
          (fun i pattern ->
            match List.assoc_opt v pattern with
            | Some true -> bits := !bits lor (1 lsl i)
            | Some false | None -> ())
          patterns;
        w.(words - 1) <- !bits)
      var_words;
    (* re-simulate every node (fanins precede their nodes by construction) *)
    for n = 0 to Man.num_nodes out - 1 do
      record_sim n (compute_sim n)
    done;
    (* rebuild classes from surviving representatives *)
    Sig_tbl.reset classes;
    let old_reps = Vec.to_list reps in
    Vec.clear reps;
    List.iter register_rep old_reps
  in
  let add_cex () =
    (* read input-variable values from the model *)
    let pattern =
      Hashtbl.fold
        (fun v _ acc ->
          let ain = Man.input out v in
          (v, S.lit_value solver (Cnf_enc.sat_lit out enc ain)) :: acc)
        var_words []
    in
    Obs.Metrics.incr c_cex;
    pending_cex := pattern :: !pending_cex;
    if List.length !pending_cex >= Sys.int_size - 2 then flush_cex ()
  in
  (* one bounded SAT call, true on a proof; a model refines the
     simulation patterns *)
  let unsat assumptions =
    match S.solve ~assumptions ~budget ~conflict_limit solver with
    | S.Unsat -> true
    | S.Sat ->
        add_cex ();
        false
    | S.Unknown -> false
  in
  let count_check () =
    Budget.check budget;
    incr sat_checks;
    Obs.Metrics.incr c_sat_checks
  in
  let prove_false a =
    count_check ();
    unsat [ Cnf_enc.sat_lit out enc a ]
  in
  let prove_equal a b =
    count_check ();
    let la = Cnf_enc.sat_lit out enc a and lb = Cnf_enc.sat_lit out enc b in
    unsat [ la; L.neg lb ] && unsat [ L.neg la; lb ]
  in
  let spent () = S.num_propagations solver >= max_propagations in
  (* try at most [max_candidates] representatives of the class *)
  let rec first_equal cand checked = function
    | rep :: rest when checked < max_candidates && not (spent ()) ->
        if prove_equal cand rep then Some rep else first_equal cand (checked + 1) rest
    | _ -> None
  in
  (* remember nodes already proven equal to a representative *)
  let merged_to : (int, Man.lit) Hashtbl.t = Hashtbl.create 64 in
  (* map old nodes into [out], merging equivalents *)
  let table = Array.make (Man.num_nodes man) Man.false_ in
  let get edge = Man.apply_sign table.(Man.node_of edge) ~neg:(Man.is_compl edge) in
  Man.iter_cone man roots (fun n ->
      let mapped =
        if n = 0 then Man.false_
        else if Man.is_input man (n * 2) then begin
          let lit = Man.input out (Man.var_of_input man (n * 2)) in
          ensure_sim (Man.node_of lit);
          lit
        end
        else begin
          let e0 = get (fst (Man.fanins man (n * 2))) and e1 = get (snd (Man.fanins man (n * 2))) in
          let cand = Man.mk_and out e0 e1 in
          let cnode = Man.node_of cand in
          if Man.is_const cand || Man.is_input out cand || Hashtbl.mem rep_nodes cnode then cand
          else begin
            match Hashtbl.find_opt merged_to cnode with
            | Some rep -> Man.apply_sign rep ~neg:(Man.is_compl cand)
            | None when spent () -> cand
            | None -> (
                ensure_sim cnode;
                (* candidate equivalence class lookup *)
                let s, flipped = normalize (edge_sim cand) in
                let cand_n = Man.apply_sign cand ~neg:flipped in
                (* all-zero signature: try the constant-false proof first *)
                let merged =
                  if Array.for_all (fun w -> w = 0) s && prove_false cand_n then Some Man.false_
                  else
                    match Sig_tbl.find_opt classes s with
                    | None -> None
                    | Some lst -> first_equal cand_n 0 !lst
                in
                match merged with
                | Some rep ->
                    Obs.Metrics.incr c_merges;
                    (* cand == rep up to the normalization flip *)
                    let res = Man.apply_sign rep ~neg:flipped in
                    Hashtbl.replace merged_to cnode (Man.apply_sign res ~neg:(Man.is_compl cand));
                    res
                | None ->
                    register_rep cand;
                    cand)
          end
        end
      in
      table.(n) <- mapped);
  let mapped_roots = List.map get roots in
  let reduced_man, reduced_roots = Man.compact out mapped_roots in
  Obs.Span.event "fraig.done"
    ~attrs:
      [
        ("sat_checks", Obs.Int !sat_checks);
        ("propagations", Obs.Int (S.num_propagations solver));
        ("nodes_after", Obs.Int (Man.num_nodes reduced_man));
      ]
    ();
  (reduced_man, reduced_roots)
