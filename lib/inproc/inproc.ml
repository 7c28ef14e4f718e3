open Hqs_util
module L = Sat.Lit

type mode = Off | On

let mode_name = function Off -> "off" | On -> "on"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" -> Some Off
  | "on" | "1" -> Some On
  | _ -> None

let default_mode = On

type config = {
  unit_propagation : bool;
  universal_reduction : bool;
  equivalences : bool;
  subsumption : bool;
  self_subsumption : bool;
  max_rounds : int;
}

let config_of_mode = function
  | Off ->
      {
        unit_propagation = false;
        universal_reduction = false;
        equivalences = false;
        subsumption = false;
        self_subsumption = false;
        max_rounds = 0;
      }
  | On ->
      {
        unit_propagation = true;
        universal_reduction = true;
        equivalences = true;
        subsumption = true;
        self_subsumption = true;
        max_rounds = 50;
      }

type problem = {
  num_vars : int;
  univs : Bitset.t;
  deps : (int * Bitset.t) list;
  clauses : int list list;
}

type step =
  | Unit of int
  | Reduced of { clause : int list; dropped : int list }
  | Merged of { y : int; rep : int }
  | Subsumed of { clause : int list; by : int list }
  | Strengthened of { clause : int list; removed : int; by : int list }

type stats = {
  rounds : int;
  units : int;
  reduced_lits : int;
  scc_merges : int;
  subsumed : int;
  strengthened : int;
  clauses_before : int;
  clauses_after : int;
  lits_before : int;
  lits_after : int;
  vars_before : int;
  vars_after : int;
}

type gate_fn = G_and of int * int | G_xor of int * int

type gate = { out_var : int; out_neg : bool; fn : gate_fn; def_clauses : int list list }

type result = {
  clauses : int list list;
  univs : Bitset.t;
  deps : (int * Bitset.t) list;
  gates : gate list;
  steps : step list;
  stats : stats;
}

type outcome = Unsat | Simplified of result

exception Refuted

(* ------------------------------------------------------------- metrics *)

let c_runs = Obs.Metrics.counter "inproc.runs"
let c_rounds = Obs.Metrics.counter "inproc.rounds"
let c_units = Obs.Metrics.counter "inproc.units"
let c_merges = Obs.Metrics.counter "inproc.scc_merges"
let c_subsumed = Obs.Metrics.counter "inproc.subsumed"
let c_strengthened = Obs.Metrics.counter "inproc.strengthened"
let c_clauses_removed = Obs.Metrics.counter "inproc.clauses_removed"
let c_lits_removed = Obs.Metrics.counter "inproc.lits_removed"

(* -------------------------------------------------------- clause arena *)

(* [csig] is a 63-bit Bloom signature over the variables: a clause can
   only subsume or strengthen another if its variables are among the
   other's, so that is first tested on the signatures with one land. *)
type cls = { mutable lits : int list; mutable alive : bool; mutable csig : int }

let sig_of lits = List.fold_left (fun s l -> s lor (1 lsl (L.var l mod 63))) 0 lits

(* [st.mark] bits of a clause since the last subsumption pass:
   [queued] for the next one, [rewritten] by [simplify] (which queues
   the clause and every clause sharing a variable with it) *)
let queued = 1
let rewritten = 2

type st = {
  cfg : config;
  nvars : int;
  mutable univs : Bitset.t;
  deps : (int, Bitset.t) Hashtbl.t;
  arena : cls array; (* sized to the input: rules never add a clause *)
  mutable n : int;
  value : int array; (* per var: -1 unknown, 0 false, 1 true *)
  sub : int array; (* var -> representative literal of its positive literal *)
  mutable occ : int list array; (* literal -> clause ids (stale-tolerant) *)
  occ_n : int array; (* literal -> live occurrence count *)
  mark : int array; (* clause -> [queued] / [rewritten] bits *)
  mutable binaries_changed : bool; (* a binary clause made or rewritten since the last SCC pass *)
  mutable steps : step list; (* reversed chronological *)
  mutable units : int;
  mutable reduced_lits : int;
  mutable scc_merges : int;
  mutable subsumed : int;
  mutable strengthened : int;
}

let is_univ st v = Bitset.mem v st.univs
let is_exist st v = Hashtbl.mem st.deps v
let push_step st s = st.steps <- s :: st.steps

let dummy_cls = { lits = []; alive = false; csig = 0 }
let occ_count st l = st.occ_n.(l)
let bump st c by = List.iter (fun l -> st.occ_n.(l) <- st.occ_n.(l) + by) c.lits

let kill st c =
  if c.alive then begin
    c.alive <- false;
    bump st c (-1)
  end

(* append a clause and index it; the occurrence lists of dead clauses
   are never eagerly cleaned (consumers filter), only the counters are
   exact *)
let add_clause st lits =
  let c = { lits; alive = true; csig = sig_of lits } in
  let id = st.n in
  st.arena.(id) <- c;
  st.n <- st.n + 1;
  List.iter (fun l -> st.occ.(l) <- id :: st.occ.(l)) lits;
  bump st c 1

let build_occ st =
  let occ = Array.make (2 * st.nvars) [] in
  Array.fill st.occ_n 0 (2 * st.nvars) 0;
  for i = st.n - 1 downto 0 do
    let c = st.arena.(i) in
    if c.alive then begin
      List.iter (fun l -> occ.(l) <- i :: occ.(l)) c.lits;
      bump st c 1
    end
  done;
  st.occ <- occ

(* ------------------------------------------------------- substitution *)

let rec find_pos st v =
  let s = st.sub.(v) in
  if s = L.of_var v then s
  else begin
    let r = L.apply_sign (find_pos st (L.var s)) ~neg:(L.is_neg s) in
    st.sub.(v) <- r;
    r
  end

let find st l = L.apply_sign (find_pos st (L.var l)) ~neg:(L.is_neg l)

(* make literal [l] (already a representative) true; a universal unit
   refutes: the matrix is falsifiable under the opposite universal value *)
let assign st l =
  let v = L.var l in
  if is_univ st v then raise Refuted;
  match st.value.(v) with
  | -1 ->
      st.value.(v) <- (if L.is_pos l then 1 else 0);
      st.units <- st.units + 1;
      push_step st (Unit l);
      Hashtbl.remove st.deps v
  | x -> if (x = 1) <> L.is_pos l then raise Refuted

(* truth value of a representative literal, if assigned *)
let lit_value st l =
  match st.value.(L.var l) with -1 -> None | x -> Some ((x = 1) <> L.is_neg l)

(* --------------------------------------------------- rewriting fixpoint *)

let rec taut = function
  | a :: (b :: _ as rest) -> (L.var a = L.var b && a <> b) || taut rest
  | [ _ ] | [] -> false

(* universal reduction: a universal literal stays only if some
   existential in the clause depends on it *)
let ureduce st lits =
  let needed u =
    List.exists
      (fun l ->
        match Hashtbl.find_opt st.deps (L.var l) with
        | Some d -> Bitset.mem u d
        | None -> false)
      lits
  in
  List.partition (fun l -> (not (is_univ st (L.var l))) || needed (L.var l)) lits

(* apply substitution + assignments to every clause, normalize, reduce,
   propagate units; loops until no new assignment. The occurrence index
   is stale after this pass — phases that need it rebuild it. *)
let simplify st =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    for i = 0 to st.n - 1 do
      let c = st.arena.(i) in
      if c.alive then begin
        let mapped = List.map (find st) c.lits in
        if List.exists (fun l -> lit_value st l = Some true) mapped then begin
          kill st c;
          changed := true
        end
        else begin
          let lits =
            List.filter (fun l -> lit_value st l <> Some false) mapped
            |> List.sort_uniq Int.compare
          in
          if taut lits then begin
            kill st c;
            changed := true
          end
          else begin
            let lits, dropped =
              if st.cfg.universal_reduction then ureduce st lits else (lits, [])
            in
            if dropped <> [] then begin
              st.reduced_lits <- st.reduced_lits + List.length dropped;
              push_step st (Reduced { clause = lits @ dropped; dropped })
            end;
            if lits = [] then raise Refuted;
            if lits <> c.lits then begin
              bump st c (-1);
              c.lits <- lits;
              c.csig <- sig_of lits;
              bump st c 1;
              st.mark.(i) <- st.mark.(i) lor rewritten;
              (match lits with [ _; _ ] -> st.binaries_changed <- true | _ -> ());
              changed := true
            end;
            match lits with
            | [ l ] when st.cfg.unit_propagation ->
                assign st l;
                kill st c;
                continue_ := true;
                changed := true
            | _ -> ()
          end
        end
      end
    done
  done;
  !changed

(* ------------------------------------------- BIG + SCC (equivalences) *)

(* binary implication graph: clause (a | b) contributes !a -> b and
   !b -> a *)
let big_adjacency st =
  let adj = Array.make (2 * st.nvars) [] in
  for i = 0 to st.n - 1 do
    let c = st.arena.(i) in
    if c.alive then
      match c.lits with
      | [ a; b ] ->
          adj.(L.neg a) <- b :: adj.(L.neg a);
          adj.(L.neg b) <- a :: adj.(L.neg b)
      | _ -> ()
  done;
  adj

(* iterative Tarjan over the literal graph; returns the component id of
   every literal (-1 for unvisited isolated nodes keeps them singleton) *)
let tarjan_scc nnodes adj =
  let index = Array.make nnodes (-1) in
  let lowlink = Array.make nnodes 0 in
  let on_stack = Array.make nnodes false in
  let comp = Array.make nnodes (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit root =
    (* explicit call stack: (node, remaining successors) *)
    let calls = ref [ (root, adj.(root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !calls <> [] do
      match !calls with
      | [] -> ()
      | (v, succs) :: rest -> (
          match succs with
          | w :: more ->
              calls := (v, more) :: rest;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                calls := (w, adj.(w)) :: !calls
              end
              else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              calls := rest;
              (match rest with
              | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                let cid = !next_comp in
                incr next_comp;
                let rec pop () =
                  match !stack with
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      comp.(w) <- cid;
                      if w <> v then pop ()
                  | [] -> ()
                in
                pop ()
              end)
    done
  in
  for v = 0 to nnodes - 1 do
    if index.(v) = -1 && adj.(v) <> [] then visit v
  done;
  comp

(* Equivalence substitution driven by the SCCs of the BIG. DQBF-adapted
   merge legality:
   - a component holding a literal and its own negation is a
     contradiction;
   - two universal variables forced equal (in either polarity) refute;
   - an existential forced equal to a universal must carry that
     universal in its dependency set, else no Skolem function exists;
   - merged existentials keep the intersection of their dependency sets
     (each Skolem function must agree with the others on every universal
     assignment, so it can only read the shared inputs). *)
let scc_pass st =
  let nnodes = 2 * st.nvars in
  let adj = big_adjacency st in
  let comp = tarjan_scc nnodes adj in
  let classes : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  for l = 0 to nnodes - 1 do
    if comp.(l) >= 0 then begin
      if comp.(l) = comp.(L.neg l) then raise Refuted;
      match Hashtbl.find_opt classes comp.(l) with
      | Some cell -> cell := l :: !cell
      | None -> Hashtbl.add classes comp.(l) (ref [ l ])
    end
  done;
  let merged = ref false in
  Hashtbl.iter
    (fun _ cell ->
      (* keep only literals over variables still in the prefix *)
      let members =
        List.filter (fun l -> is_univ st (L.var l) || is_exist st (L.var l)) !cell
      in
      match members with
      | [] | [ _ ] -> ()
      | members -> (
          let universals = List.filter (fun l -> is_univ st (L.var l)) members in
          let merge_into rep m =
            let y = L.var m in
            let rep_for_y = L.apply_sign rep ~neg:(L.is_neg m) in
            st.sub.(y) <- rep_for_y;
            push_step st (Merged { y; rep = rep_for_y });
            Hashtbl.remove st.deps y;
            st.scc_merges <- st.scc_merges + 1;
            merged := true
          in
          match universals with
          | _ :: _ :: _ -> raise Refuted
          | [ u ] ->
              List.iter
                (fun m ->
                  if L.var m <> L.var u then begin
                    if not (Bitset.mem (L.var u) (Hashtbl.find st.deps (L.var m))) then
                      raise Refuted;
                    merge_into u m
                  end)
                members
          | [] ->
              let rep =
                List.fold_left (fun a b -> if L.var b < L.var a then b else a)
                  (List.hd members) members
              in
              let inter =
                List.fold_left
                  (fun acc m -> Bitset.inter acc (Hashtbl.find st.deps (L.var m)))
                  (Hashtbl.find st.deps (L.var rep))
                  members
              in
              Hashtbl.replace st.deps (L.var rep) inter;
              List.iter (fun m -> if L.var m <> L.var rep then merge_into rep m) members))
    classes;
  !merged

(* ------------------------------------- subsumption / self-subsumption *)

(* How clause [c] bears on clause [d], both sorted and tautology-free,
   in one walk over their variables: every variable of [c] must occur
   in [d], with the same sign except for at most one literal [l] of [c].
   Then [c] subsumes [d], or strengthens it: the resolvent on [l] is [d]
   without [!l] and subsumes [d]. [flip] is that [l] so far, -1 for none. *)
type relation = Unrelated | Subsumes | Strengthens of int

let rec relate flip c d =
  match (c, d) with
  | [], _ -> if flip < 0 then Subsumes else Strengthens flip
  | _, [] -> Unrelated
  | x :: xs, y :: ys ->
      if L.var x > L.var y then relate flip c ys
      else if L.var x < L.var y then Unrelated
      else if x = y then relate flip xs ys
      else if flip < 0 then relate x xs ys
      else Unrelated

let touch st j = st.mark.(j) <- st.mark.(j) lor queued

(* clause [i] deletes every clause it subsumes and strengthens every
   clause it can, all found in the two occurrence lists of its
   least-occurring variable; true if it changed any *)
let subsume_with st i =
  let c = st.arena.(i) in
  let var_occ l = occ_count st l + occ_count st (L.neg l) in
  let pivot =
    List.fold_left (fun a l -> if var_occ l < var_occ a then l else a) (List.hd c.lits) c.lits
  in
  let changed = ref false in
  let scan j =
    let d = st.arena.(j) in
    if j <> i && d.alive && c.csig land lnot d.csig = 0 then
      match relate (-1) c.lits d.lits with
      | Unrelated -> ()
      | Subsumes ->
          if st.cfg.subsumption then begin
            push_step st (Subsumed { clause = d.lits; by = c.lits });
            kill st d;
            st.subsumed <- st.subsumed + 1;
            changed := true
          end
      | Strengthens l ->
          if st.cfg.self_subsumption then begin
            push_step st (Strengthened { clause = d.lits; removed = L.neg l; by = c.lits });
            bump st d (-1);
            d.lits <- List.filter (fun k -> k <> L.neg l) d.lits;
            d.csig <- sig_of d.lits;
            bump st d 1;
            touch st j;
            (match d.lits with
            | [] -> raise Refuted
            | [ _; _ ] -> st.binaries_changed <- true
            | _ -> ());
            st.strengthened <- st.strengthened + 1;
            changed := true
          end
  in
  List.iter scan st.occ.(pivot);
  List.iter scan st.occ.(L.neg pivot);
  !changed

(* Backward subsumption and self-subsuming strengthening, MiniSat
   style: the queued clauses, shortest first, each through
   [subsume_with]. The first pass ([all]) queues every clause. A later
   one queues the clauses rewritten or strengthened since the last
   pass, and every clause sharing a variable with one that [simplify]
   rewrote: substitution can add literals to it, so an untouched clause
   may now subsume it. No other clause can have gained a partner, since
   clauses otherwise only shrink. A clause strengthened before its turn
   is taken at its turn, one strengthened after it in the next pass. *)
let subsume_pass st ~all =
  if (not all) && Array.for_all (fun m -> m = 0) st.mark then false
  else begin
    build_occ st;
    for i = 0 to st.n - 1 do
      let c = st.arena.(i) in
      if c.alive && st.mark.(i) land rewritten <> 0 then
        List.iter
          (fun l ->
            List.iter (touch st) st.occ.(l);
            List.iter (touch st) st.occ.(L.neg l))
          c.lits
    done;
    (* the turns: live ids keyed by (length, id), packed in one int *)
    let keys = ref [] in
    for i = st.n - 1 downto 0 do
      let c = st.arena.(i) in
      st.mark.(i) <- (if c.alive then st.mark.(i) land queued else 0);
      if c.alive then keys := ((List.length c.lits lsl 31) lor i) :: !keys
    done;
    let keys = Array.of_list !keys in
    Array.sort Int.compare keys;
    Array.fold_left
      (fun changed key ->
        let i = key land ((1 lsl 31) - 1) in
        if (st.arena.(i)).alive && (all || st.mark.(i) <> 0) then begin
          st.mark.(i) <- 0;
          subsume_with st i || changed
        end
        else changed)
      false keys
  end

(* A variable [v] is dependency-below [D_y] when a Skolem function over
   [D_y] may read it: a universal in [D_y], or an existential whose own
   dependency set is contained in [D_y]. *)
let dep_below st v d_y =
  if is_univ st v then Bitset.mem v d_y
  else match Hashtbl.find_opt st.deps v with Some dv -> Bitset.subset dv d_y | None -> false

(* ---------------------------------------------------- gate detection *)

(* Tseitin AND/XOR definitions among the fixpoint's clauses, found
   through the occurrence lists. A gate is kept only when it is
   Henkin-legal (every input is dependency-below the output), so substituting the output by its function never widens a
   dependency requirement. Candidates are collected AND first, each kind
   in arena order, the first definition of an output wins; then an
   acyclic subset is accepted: a gate once every input that is itself a
   candidate output has been accepted (a cycle leaves all its members
   rejected, keeping their clauses — conservative but sound). The
   accepted gates' defining clauses leave the arena. *)

let gate_inputs g = match g.fn with G_and (a, b) | G_xor (a, b) -> [ L.var a; L.var b ]

(* bit i set iff the i-th literal of the clause is negated *)
let sign_mask lits =
  List.fold_left (fun (m, bit) l -> ((if L.is_neg l then m lor bit else m), bit lsl 1)) (0, 1) lits
  |> fst

let detect_gates st =
  build_occ st;
  (* (m, id) for every live binary clause (l | m), sorted by m, one
     occurrence scan per literal; equal partners keep occurrence order *)
  let partners = Array.make (2 * st.nvars) None in
  let binaries l =
    match partners.(l) with
    | Some ms -> ms
    | None ->
        let ms =
          List.filter_map
            (fun j ->
              match (st.arena.(j)).lits with
              | [ a; b ] -> Some ((if a = l then b else a), j)
              | _ -> None)
            st.occ.(l)
          |> Array.of_list
        in
        Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) ms;
        partners.(l) <- Some ms;
        ms
  in
  (* the first binary (l | m) among [binaries l], by binary search *)
  let partner ms m =
    let rec leftmost lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst ms.(mid) < m then leftmost (mid + 1) hi else leftmost lo mid
    in
    let k = leftmost 0 (Array.length ms) in
    if k < Array.length ms && fst ms.(k) = m then Some (snd ms.(k)) else None
  in
  let legal out ins =
    match Hashtbl.find_opt st.deps out with
    | None -> false
    | Some d_out -> List.for_all (fun w -> w <> out && dep_below st w d_out) ins
  in
  let defined = Array.make st.nvars false in
  let cands = ref [] in
  let consume out_var out_neg fn ids =
    if not defined.(out_var) then begin
      defined.(out_var) <- true;
      let def_clauses = List.map (fun j -> (st.arena.(j)).lits) ids in
      cands := ({ out_var; out_neg; fn; def_clauses }, ids) :: !cands
    end
  in
  (* AND: ternary (p|q|r) plus binaries (!p|!q) (!p|!r) in occ(!p)
     gives p = !q & !r *)
  for i = 0 to st.n - 1 do
    match (st.arena.(i)).lits with
    | [ _; _; _ ] as lits when (st.arena.(i)).alive ->
        List.iter
          (fun p ->
            match List.filter (fun l -> l <> p) lits with
            | [ q; r ] -> (
                let bs = binaries (L.neg p) in
                match (partner bs (L.neg q), partner bs (L.neg r)) with
                | Some jq, Some jr when legal (L.var p) [ L.var q; L.var r ] ->
                    consume (L.var p) (L.is_neg p) (G_and (L.neg q, L.neg r)) [ i; jq; jr ]
                | _ -> ())
            | _ -> ())
          lits
    | _ -> ()
  done;
  (* XOR: the four odd-sign ternaries over a variable triple a < b < c
     encode a ^ b ^ c = 0. Each triple is handled at its first clause
     in arena order, collecting the others from the occurrence lists of
     its rarest variable; the output is the first of a, b, c that is
     still undefined and legal, out = the other two XORed. *)
  let odd m = m = 1 || m = 2 || m = 4 || m = 7 in
  for i = 0 to st.n - 1 do
    let c = st.arena.(i) in
    match c.lits with
    | [ l0; l1; l2 ]
      when c.alive && L.var l0 < L.var l1 && L.var l1 < L.var l2 && odd (sign_mask c.lits) -> (
        let vars = [ L.var l0; L.var l1; L.var l2 ] in
        let occ_var v = occ_count st (L.of_var v) + occ_count st (L.neg (L.of_var v)) in
        let pivot =
          List.fold_left (fun a v -> if occ_var v < occ_var a then v else a) (List.hd vars) vars
        in
        let group =
          List.filter_map
            (fun j ->
              let lits = (st.arena.(j)).lits in
              let m = sign_mask lits in
              if List.map L.var lits = vars && odd m then Some (j, m) else None)
            (st.occ.(L.of_var pivot) @ st.occ.(L.neg (L.of_var pivot)))
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let first m = List.find_map (fun (j, m') -> if m' = m then Some j else None) group in
        match (group, List.filter_map first [ 1; 2; 4; 7 ]) with
        | (j, _) :: _, ([ _; _; _; _ ] as ids) when j = i ->
            let try_out out =
              let ins = List.filter (fun v -> v <> out) vars in
              (not defined.(out))
              && legal out ins
              &&
              match ins with
              | [ i1; i2 ] ->
                  consume out false (G_xor (L.of_var i1, L.of_var i2)) ids;
                  true
              | _ -> false
            in
            ignore (List.exists try_out vars)
        | _ -> ())
    | _ -> ()
  done;
  let cands = List.rev !cands in
  let is_out = Array.make st.nvars false in
  List.iter (fun (g, _) -> is_out.(g.out_var) <- true) cands;
  let accepted = Array.make st.nvars false in
  let selected = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (g, ids) ->
        if
          (not accepted.(g.out_var))
          && List.for_all (fun v -> (not is_out.(v)) || accepted.(v)) (gate_inputs g)
        then begin
          accepted.(g.out_var) <- true;
          selected := g :: !selected;
          List.iter (fun j -> kill st st.arena.(j)) ids;
          progress := true
        end)
      cands
  done;
  List.rev !selected

(* ---------------------------------------------------------------- run *)

let live_counts st =
  let cl = ref 0 and li = ref 0 in
  for i = 0 to st.n - 1 do
    let c = st.arena.(i) in
    if c.alive then begin
      incr cl;
      li := !li + List.length c.lits
    end
  done;
  (!cl, !li)

let run ?config ?(budget = Budget.unlimited) ?(gates = false) (p : problem) =
  let cfg = match config with Some c -> c | None -> config_of_mode default_mode in
  let declared_vars =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (L.var l + 1)) acc c)
      p.num_vars p.clauses
  in
  let nvars = max 1 declared_vars in
  Obs.Span.with_ "inproc.run"
    ~attrs:[ ("clauses", Obs.Int (List.length p.clauses)); ("vars", Obs.Int nvars) ]
  @@ fun () ->
  Obs.Metrics.incr c_runs;
  let st =
    {
      cfg;
      nvars;
      univs = p.univs;
      deps = Hashtbl.create 64;
      arena = Array.make (List.length p.clauses) dummy_cls;
      n = 0;
      value = Array.make nvars (-1);
      sub = Array.init nvars L.of_var;
      occ = Array.make (2 * nvars) [];
      occ_n = Array.make (2 * nvars) 0;
      mark = Array.make (List.length p.clauses) 0;
      binaries_changed = true;
      steps = [];
      units = 0;
      reduced_lits = 0;
      scc_merges = 0;
      subsumed = 0;
      strengthened = 0;
    }
  in
  List.iter (fun (y, d) -> Hashtbl.replace st.deps y d) p.deps;
  (* variables declared nowhere are existential with no dependencies,
     mirroring Pcnf.to_formula *)
  for v = 0 to declared_vars - 1 do
    if (not (is_univ st v)) && not (is_exist st v) then Hashtbl.replace st.deps v Bitset.empty
  done;
  List.iter (fun c -> add_clause st (List.sort_uniq Int.compare c)) p.clauses;
  let clauses_before = List.length p.clauses in
  let lits_before = List.fold_left (fun acc c -> acc + List.length c) 0 p.clauses in
  let vars_before = Hashtbl.length st.deps + Bitset.cardinal st.univs in
  match
    let rounds = ref 0 in
    let continue_ = ref (cfg.max_rounds > 0) in
    while !continue_ && !rounds < cfg.max_rounds do
      Budget.check budget;
      incr rounds;
      (* a later round starts where the last one ended, on a closed
         [simplify]: running it again would find nothing *)
      let ch = ref (!rounds = 1 && simplify st) in
      (* the SCCs of an unchanged implication graph are all merged *)
      if cfg.equivalences && st.binaries_changed then begin
        st.binaries_changed <- false;
        if scc_pass st then begin
          ignore (simplify st);
          ch := true
        end
      end;
      if cfg.subsumption || cfg.self_subsumption then
        if subsume_pass st ~all:(!rounds = 1) then begin
          ignore (simplify st);
          ch := true
        end;
      continue_ := !ch
    done;
    !rounds
  with
  | exception Refuted ->
      Obs.Span.event "inproc.done" ~attrs:[ ("refuted", Obs.Bool true) ] ();
      Unsat
  | rounds ->
      let clauses_after, lits_after = live_counts st in
      let gates =
        if gates then begin
          Budget.check budget;
          detect_gates st
        end
        else []
      in
      let clauses = ref [] in
      for i = st.n - 1 downto 0 do
        let c = st.arena.(i) in
        if c.alive then clauses := c.lits :: !clauses
      done;
      let deps =
        Hashtbl.fold (fun y d acc -> (y, d) :: acc) st.deps []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let stats =
        {
          rounds;
          units = st.units;
          reduced_lits = st.reduced_lits;
          scc_merges = st.scc_merges;
          subsumed = st.subsumed;
          strengthened = st.strengthened;
          clauses_before;
          clauses_after;
          lits_before;
          lits_after;
          vars_before;
          vars_after = Hashtbl.length st.deps + Bitset.cardinal st.univs;
        }
      in
      Obs.Metrics.incr ~by:rounds c_rounds;
      Obs.Metrics.incr ~by:st.units c_units;
      Obs.Metrics.incr ~by:st.scc_merges c_merges;
      Obs.Metrics.incr ~by:st.subsumed c_subsumed;
      Obs.Metrics.incr ~by:st.strengthened c_strengthened;
      Obs.Metrics.incr ~by:(max 0 (clauses_before - clauses_after)) c_clauses_removed;
      Obs.Metrics.incr ~by:(max 0 (lits_before - lits_after)) c_lits_removed;
      Obs.Span.event "inproc.done"
        ~attrs:
          [
            ("rounds", Obs.Int rounds);
            ("units", Obs.Int st.units);
            ("merges", Obs.Int st.scc_merges);
            ("subsumed", Obs.Int st.subsumed);
            ("strengthened", Obs.Int st.strengthened);
            ("clauses_after", Obs.Int clauses_after);
          ]
        ();
      Simplified
        { clauses = !clauses; univs = st.univs; deps; gates; steps = List.rev st.steps; stats }
