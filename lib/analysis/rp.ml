(* Reflexive resolution-path dependency scheme over the clause/literal
   incidence graph. See rp.mli for the definitions; the notes here cover
   the flat traversal.

   Storage. The matrix is copied once into CSR int arrays: clause [c]
   owns the literal indices [lits.(cl_start.(c)) .. lits.(cl_start.(c+1)-1)],
   and literal index [li] (2v for v+1, 2v+1 for -(v+1); its variable is
   [li lsr 1], its complement [li lxor 1]) occurs in the clauses
   [occ.(occ_start.(li)) .. occ.(occ_start.(li+1)-1)].

   Traversal. Per mentioned universal x we run two passes, from x and
   from ¬x. Visiting a clause through entry variable v may exit through
   any literal of a different variable; an exit literal l over a
   connecting variable (an existential that depends on x, read from a
   byte mask built once per universal) enters every clause containing ¬l
   through var(l). The linear-time device (Slivovsky & Szeider) is the
   per-clause state: the first visit expands every literal except the
   entry variable's and records the entry literal; a later visit through
   a *different* variable releases the skipped literal and completes the
   clause. Every clause is scanned at most once per pass.

   The work list is a preallocated int stack of literals, not of clause
   entries: popping l enters the clauses of ¬l through var(l). Each
   literal is pushed at most once per pass (when first reached), plus the
   start entry, so 2n + 1 slots suffice. Visit order is irrelevant: a
   literal of clause C is reached iff some entry variable of C differs
   from its own variable, a monotone rule whose least fixpoint every
   exhaustive visit order computes.

   Reuse. [reached_pos]/[reached_neg] and the clause state are allocated
   once and stamped with the pass number, so a fresh pass costs O(1) to
   reset instead of an [Array.make] over all literals and clauses. *)

open Hqs_util
module Pcnf = Dqbf.Pcnf

type refinement = { var : int; before : int list; after : int list }

type report = {
  scheme : Scheme.t;
  universals : int;
  existentials : int;
  clause_count : int;
  edges_before : int;
  edges_after : int;
  pruned : (int * int) list;
  refinements : refinement list;
  incomparable_before : int;
  incomparable_after : int;
  linearized : bool;
}

let c_pruned = Obs.Metrics.counter "analysis.edges_pruned"
let c_linearized = Obs.Metrics.counter "analysis.linearized"

module Set_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

(* count existential pairs whose dependency sets are incomparable under
   inclusion — zero iff the dependency graph is acyclic (Theorem 4), i.e.
   the prefix is linearly orderable. Equal sets are comparable, so the
   sets are first grouped into d distinct classes with multiplicities m_i,
   and the count is the sum of m_i·m_j over incomparable class pairs:
   O(|E| + d²) subset tests instead of |E|²/2. *)
let incomparable_count sets =
  let tbl = Set_tbl.create 16 in
  Array.iter
    (fun s ->
      match Set_tbl.find_opt tbl s with
      | Some m -> incr m
      | None -> Set_tbl.add tbl s (ref 1))
    sets;
  let classes = Array.of_seq (Set_tbl.to_seq tbl) in
  let count = ref 0 in
  for i = 0 to Array.length classes - 1 do
    let si, mi = classes.(i) in
    for j = i + 1 to Array.length classes - 1 do
      let sj, mj = classes.(j) in
      if not (Bitset.subset si sj || Bitset.subset sj si) then count := !count + (!mi * !mj)
    done
  done;
  !count

let edge_count refinements which =
  List.fold_left (fun acc r -> acc + List.length (which r)) 0 refinements

(* [before]/[after] are the dependency sets of [refinements], in order;
   passing the same array for both skips the second count *)
let make_report ~scheme ~(pcnf : Pcnf.t) ~before ~after ~pruned refinements =
  let incomparable_before = incomparable_count before in
  let incomparable_after = if after == before then incomparable_before else incomparable_count after in
  {
    scheme;
    universals = List.length pcnf.Pcnf.univs;
    existentials = List.length pcnf.Pcnf.exists;
    clause_count = List.length pcnf.Pcnf.clauses;
    edges_before = edge_count refinements (fun r -> r.before);
    edges_after = edge_count refinements (fun r -> r.after);
    pruned;
    refinements;
    incomparable_before;
    incomparable_after;
    linearized = incomparable_after = 0 && incomparable_before > 0;
  }

let dep_sets pcnf = Array.of_list (List.map snd (Pcnf.dep_sets pcnf))

let trivial (pcnf : Pcnf.t) =
  let refinements =
    List.map (fun (y, deps) -> { var = y; before = deps; after = deps }) pcnf.Pcnf.exists
  in
  let sets = dep_sets pcnf in
  (pcnf, make_report ~scheme:Scheme.Trivial ~pcnf ~before:sets ~after:sets ~pruned:[] refinements)

let lit_index l = if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1

type graph = {
  cl_start : int array;  (** ncl + 1 offsets into [lits] *)
  lits : int array;  (** literal indices, clause after clause *)
  occ_start : int array;  (** 2n + 1 offsets into [occ] *)
  occ : int array;  (** clause ids, grouped by literal index *)
}

let build_graph ~n clauses =
  let ncl = List.length clauses in
  let cl_start = Array.make (ncl + 1) 0 in
  List.iteri (fun c cl -> cl_start.(c + 1) <- cl_start.(c) + List.length cl) clauses;
  let total = cl_start.(ncl) in
  let lits = Array.make total 0 in
  let occ_start = Array.make ((2 * n) + 1) 0 in
  List.iteri
    (fun c cl ->
      List.iteri
        (fun k l ->
          let li = lit_index l in
          lits.(cl_start.(c) + k) <- li;
          occ_start.(li + 1) <- occ_start.(li + 1) + 1)
        cl)
    clauses;
  for li = 0 to (2 * n) - 1 do
    occ_start.(li + 1) <- occ_start.(li + 1) + occ_start.(li)
  done;
  let fill = Array.sub occ_start 0 (2 * n) in
  let occ = Array.make total 0 in
  for c = 0 to ncl - 1 do
    for k = cl_start.(c) to cl_start.(c + 1) - 1 do
      let li = lits.(k) in
      occ.(fill.(li)) <- c;
      fill.(li) <- fill.(li) + 1
    done
  done;
  { cl_start; lits; occ_start; occ }

(* mark literal [m] reached in this pass; push it if its variable connects *)
let[@inline] expand ~conn ~reached ~stamp ~stack sp m =
  if reached.(m) = stamp then sp
  else begin
    reached.(m) <- stamp;
    if Bytes.get conn (m lsr 1) = '\001' then begin
      stack.(sp) <- m;
      sp + 1
    end
    else sp
  end

(* One reachability pass from literal index [start]: afterwards
   [reached.(li) = stamp] iff li lies on a resolution path from [start]
   whose connecting variables are those flagged in [conn].

   Clause state is [cl_state.(c) - base] with [base = stamp · (2n + 1)]:
   negative — not visited in this pass; [e + 1] — entered once through
   its literal e, so the literals of var(e) were skipped; 0 — complete.
   A second entry releases e alone, without a rescan: the only other
   literal of var(e) a clause can hold is ¬e, the popped literal, which is
   already reached — or, for the start entry, the universal's own
   literal, which is never connecting and never read. *)
let pass g ~conn ~reached ~cl_state ~stack ~stamp start =
  let base = stamp * Array.length g.occ_start in
  (* popping ¬start enters every clause containing start through var(start) *)
  stack.(0) <- start lxor 1;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let l = stack.(!sp) in
    let via = l lsr 1 and e = l lxor 1 in
    for k = g.occ_start.(e) to g.occ_start.(e + 1) - 1 do
      let c = g.occ.(k) in
      let st = cl_state.(c) - base in
      if st < 0 then begin
        cl_state.(c) <- base + e + 1;
        for j = g.cl_start.(c) to g.cl_start.(c + 1) - 1 do
          let m = g.lits.(j) in
          if m lsr 1 <> via then sp := expand ~conn ~reached ~stamp ~stack !sp m
        done
      end
      else if st > 0 && (st - 1) lsr 1 <> via then begin
        (* second entry through a different variable *)
        cl_state.(c) <- base;
        sp := expand ~conn ~reached ~stamp ~stack !sp (st - 1)
      end
    done
  done

let resolution_path_refine (pcnf : Pcnf.t) =
  let ex_var = Array.of_list (List.map fst pcnf.Pcnf.exists) in
  let sets = dep_sets pcnf in
  (* be robust to out-of-range literals and declarations: size the tables
     to every variable the formula mentions *)
  let vmax m v = max m (v + 1) in
  let n =
    List.fold_left
      (fun m c -> List.fold_left (fun m l -> max m (abs l)) m c)
      pcnf.Pcnf.num_vars pcnf.Pcnf.clauses
  in
  let n = Array.fold_left vmax (List.fold_left vmax n pcnf.Pcnf.univs) ex_var in
  let g = build_graph ~n pcnf.Pcnf.clauses in
  let dep = Array.make n Bitset.empty in
  Array.iteri (fun i y -> dep.(y) <- sets.(i)) ex_var;
  (* universals mentioned in no dependency set have nothing to prune *)
  let mentioned = Array.fold_left Bitset.union Bitset.empty sets in
  let conn = Bytes.make n '\000' in
  let reached_pos = Array.make (2 * n) 0 and reached_neg = Array.make (2 * n) 0 in
  let cl_state = Array.make (Array.length g.cl_start - 1) 0 in
  (* each literal is pushed at most once per pass, plus the start entry *)
  let stack = Array.make ((2 * n) + 1) 0 in
  (* universals pruned from each declaration's dependency set *)
  let pruned_of = Array.make (Array.length ex_var) Bitset.empty in
  let stamp = ref 0 in
  let analyze_universal x =
    Array.iter (fun y -> if Bitset.mem x dep.(y) then Bytes.set conn y '\001') ex_var;
    incr stamp;
    let s_pos = !stamp in
    pass g ~conn ~reached:reached_pos ~cl_state ~stack ~stamp:s_pos (2 * x);
    incr stamp;
    let s_neg = !stamp in
    pass g ~conn ~reached:reached_neg ~cl_state ~stack ~stamp:s_neg ((2 * x) + 1);
    Array.iteri
      (fun i y ->
        if Bitset.mem x sets.(i) then begin
          let yp = 2 * y and yn = (2 * y) + 1 in
          let connected =
            (reached_pos.(yp) = s_pos && reached_neg.(yn) = s_neg)
            || (reached_pos.(yn) = s_pos && reached_neg.(yp) = s_neg)
          in
          if not connected then pruned_of.(i) <- Bitset.add x pruned_of.(i)
        end;
        Bytes.set conn y '\000')
      ex_var
  in
  List.iter (fun x -> if Bitset.mem x mentioned then analyze_universal x) pcnf.Pcnf.univs;
  let refinements =
    List.mapi
      (fun i (y, deps) ->
        let p = pruned_of.(i) in
        let after =
          if Bitset.is_empty p then deps else List.filter (fun x -> not (Bitset.mem x p)) deps
        in
        { var = y; before = deps; after })
      pcnf.Pcnf.exists
  in
  let pruned =
    List.concat
      (List.mapi
         (fun i r ->
           let p = pruned_of.(i) in
           if Bitset.is_empty p then []
           else List.filter_map (fun x -> if Bitset.mem x p then Some (x, r.var) else None) r.before)
         refinements)
  in
  let after =
    if pruned = [] then sets else Array.mapi (fun i s -> Bitset.diff s pruned_of.(i)) sets
  in
  let report = make_report ~scheme:Scheme.Rp ~pcnf ~before:sets ~after ~pruned refinements in
  let refined =
    if pruned = [] then pcnf
    else { pcnf with Pcnf.exists = List.map (fun r -> (r.var, r.after)) refinements }
  in
  (refined, report)

let analyze ~scheme (pcnf : Pcnf.t) =
  match scheme with
  | Scheme.Trivial -> trivial pcnf
  | Scheme.Rp ->
      Obs.Span.with_ "analysis.rp"
        ~attrs:
          [
            ("vars", Obs.Int pcnf.Pcnf.num_vars);
            ("clauses", Obs.Int (List.length pcnf.Pcnf.clauses));
            ("universals", Obs.Int (List.length pcnf.Pcnf.univs));
          ]
      @@ fun () ->
      let refined, report = resolution_path_refine pcnf in
      Obs.Metrics.incr c_pruned ~by:(List.length report.pruned);
      if report.linearized then Obs.Metrics.incr c_linearized;
      Obs.Span.event "analysis.refined"
        ~attrs:
          [
            ("pruned", Obs.Int (List.length report.pruned));
            ("linearized", Obs.Bool report.linearized);
          ]
        ();
      (refined, report)

let pp_report fmt r =
  let dimacs v = v + 1 in
  let ids l = String.concat " " (List.map (fun v -> string_of_int (dimacs v)) l) in
  Format.fprintf fmt "c analysis scheme=%s@." (Scheme.name r.scheme);
  Format.fprintf fmt "c analysis universals=%d existentials=%d clauses=%d@." r.universals
    r.existentials r.clause_count;
  Format.fprintf fmt "c analysis dependency-edges %d -> %d (%d pruned)@." r.edges_before
    r.edges_after
    (r.edges_before - r.edges_after);
  Format.fprintf fmt "c analysis incomparable-pairs %d -> %d@." r.incomparable_before
    r.incomparable_after;
  List.iter
    (fun { var; before; after } ->
      if List.length after = List.length before then
        Format.fprintf fmt "v %d  deps {%s}  (unchanged)@." (dimacs var) (ids before)
      else
        let kept = Bitset.of_list after in
        let dropped = List.filter (fun x -> not (Bitset.mem x kept)) before in
        Format.fprintf fmt "v %d  deps {%s} -> {%s}  (pruned: %s)@." (dimacs var) (ids before)
          (ids after) (ids dropped))
    r.refinements;
  Format.fprintf fmt "s analysis pruned=%d linearized=%s@."
    (r.edges_before - r.edges_after)
    (if r.linearized then "yes" else "no")
