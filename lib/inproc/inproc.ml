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
let c_simplify_visits = Obs.Metrics.counter "inproc.simplify_visits"

(* -------------------------------------------------------- clause arena *)

(* the literals of a DIMACS clause in ascending order, duplicates kept;
   two and three literals are ordered by hand *)
let clause_of_dimacs = function
  | [ a; b ] ->
      let a = L.of_dimacs a and b = L.of_dimacs b in
      [ min a b; max a b ]
  | [ a; b; c ] ->
      let a = L.of_dimacs a and b = L.of_dimacs b and c = L.of_dimacs c in
      let lo = min a (min b c) and hi = max a (max b c) in
      [ lo; a + b + c - lo - hi; hi ]
  | c -> List.sort Int.compare (List.map L.of_dimacs c)

let rec ascending = function
  | a :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

(* a clause as the arena holds it: sorted, without duplicates *)
let sorted_lits c = if ascending c then c else List.sort_uniq Int.compare c

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
  deps : Bitset.t option array; (* var -> dependency set of a live existential *)
  mutable n_exist : int; (* live existentials *)
  arena : cls array; (* sized to the input: rules never add a clause *)
  mutable n : int;
  value : int array; (* per var: -1 unknown, 0 false, 1 true *)
  sub : int array; (* var -> representative literal of its positive literal *)
  mutable occ : int list array; (* literal -> clause ids (stale-tolerant) *)
  mutable occ_sorted : bool; (* every [occ] list ascending, without duplicates *)
  occ_n : int array; (* literal -> live occurrence count *)
  mark : int array; (* clause -> [queued] / [rewritten] bits *)
  pending : Bytes.t; (* clause -> '\001' when [simplify] must visit it *)
  mutable visits : int; (* clauses [simplify] visited *)
  mutable binaries_changed : bool; (* a binary clause made or rewritten since the last SCC pass *)
  mutable steps : step list; (* reversed chronological *)
  mutable units : int;
  mutable reduced_lits : int;
  mutable scc_merges : int;
  mutable subsumed : int;
  mutable strengthened : int;
}

let is_univ st v = Bitset.mem v st.univs
let is_exist st v = Option.is_some st.deps.(v)
let deps_of st v = match st.deps.(v) with Some d -> d | None -> raise Not_found

let set_deps st v d =
  if not (is_exist st v) then st.n_exist <- st.n_exist + 1;
  st.deps.(v) <- Some d

let remove_exist st v =
  if is_exist st v then begin
    st.n_exist <- st.n_exist - 1;
    st.deps.(v) <- None
  end

let push_step st s = st.steps <- s :: st.steps

let dummy_cls = { lits = []; alive = false; csig = 0 }
let occ_count st l = st.occ_n.(l)

let rec bump_lits occ_n by = function
  | [] -> ()
  | l :: rest ->
      occ_n.(l) <- occ_n.(l) + by;
      bump_lits occ_n by rest

let bump st c by = bump_lits st.occ_n by c.lits

let kill st c =
  if c.alive then begin
    c.alive <- false;
    bump st c (-1)
  end

(* [occ.(l)] holds every live clause containing [l], and may hold dead
   clauses and clauses that have since lost [l]: consumers check. Only
   the counters are exact. [build_occ] makes the lists exact and
   ascending; until a rewrite adds a literal to a clause ([add_occ]),
   they stay ascending, so a scan of them visits the clauses that
   contain the literal in the order the exact lists would. *)
let rec index occ i = function
  | [] -> ()
  | l :: rest ->
      occ.(l) <- i :: occ.(l);
      index occ i rest

let build_occ st =
  let occ = Array.make (2 * st.nvars) [] in
  Array.fill st.occ_n 0 (2 * st.nvars) 0;
  for i = st.n - 1 downto 0 do
    let c = st.arena.(i) in
    if c.alive then begin
      index occ i c.lits;
      bump st c 1
    end
  done;
  st.occ <- occ;
  st.occ_sorted <- true

let add_occ st l i =
  st.occ.(l) <- i :: st.occ.(l);
  st.occ_sorted <- false

(* [simplify] visits a pending clause; whoever changes what a visit
   reads (a clause's literals, or the value, representative or
   dependency set of one of its variables) marks the clause *)
let mark_occ st l = List.iter (fun j -> Bytes.unsafe_set st.pending j '\001') st.occ.(l)

let mark_var st v =
  mark_occ st (L.of_var v);
  mark_occ st (L.neg (L.of_var v))

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
      remove_exist st v;
      mark_var st v
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
let rec needed st u = function
  | [] -> false
  | l :: rest -> (
      match st.deps.(L.var l) with
      | Some d when Bitset.mem u d -> true
      | Some _ | None -> needed st u rest)

let droppable st lits l = is_univ st (L.var l) && not (needed st (L.var l) lits)

let rec any_droppable st lits = function
  | [] -> false
  | l :: rest -> droppable st lits l || any_droppable st lits rest

let ureduce st lits =
  if any_droppable st lits lits then
    List.partition (fun l -> not (droppable st lits l)) lits
  else (lits, [])

(* no variable of the clause assigned or merged away *)
let rec plain st = function
  | [] -> true
  | l :: rest ->
      let v = L.var l in
      st.sub.(v) = L.of_var v && st.value.(v) < 0 && plain st rest

(* a clause's literals under the substitution and the assignment,
   sorted and deduplicated, or [None] when one of them is true *)
let assigned_and_mapped st lits =
  let mapped = List.map (find st) lits in
  if List.exists (fun l -> lit_value st l = Some true) mapped then None
  else Some (List.filter (fun l -> lit_value st l <> Some false) mapped |> List.sort_uniq Int.compare)

(* apply substitution + assignments to every pending clause in arena
   order, normalize, reduce, propagate units; loops until a sweep
   assigns nothing. Every clause is pending from the load on, and again
   when one of its variables is assigned or merged away, when it holds
   the representative of a merge whose dependency set shrank, or when
   subsumption strengthens it; any other live clause is normalized
   already, so a visit would change nothing. *)
let simplify st =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    for i = 0 to st.n - 1 do
      let c = st.arena.(i) in
      if Bytes.unsafe_get st.pending i <> '\000' then begin
        Bytes.unsafe_set st.pending i '\000';
        if c.alive then begin
          st.visits <- st.visits + 1;
          match if plain st c.lits then Some c.lits else assigned_and_mapped st c.lits with
          | None ->
              kill st c;
              changed := true
          | Some lits when taut lits ->
              kill st c;
              changed := true
          | Some lits -> (
              let lits, dropped =
                if st.cfg.universal_reduction then ureduce st lits else (lits, [])
              in
              if dropped <> [] then begin
                st.reduced_lits <- st.reduced_lits + List.length dropped;
                push_step st (Reduced { clause = lits @ dropped; dropped })
              end;
              if lits = [] then raise Refuted;
              if lits != c.lits && lits <> c.lits then begin
                (* a substitution can bring a literal in *)
                List.iter (fun l -> if not (List.mem l c.lits) then add_occ st l i) lits;
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
              | _ -> ())
        end
      end
    done
  done;
  !changed

(* ------------------------------------------- BIG + SCC (equivalences) *)

(* binary implication graph, the successors of literal [x] at
   [succ.(start.(x)) .. succ.(start.(x + 1) - 1)]: clause (a | b)
   contributes !a -> b and !b -> a, the last clause's edges first *)
let big_adjacency st =
  let nnodes = 2 * st.nvars in
  let start = Array.make (nnodes + 1) 0 in
  for i = 0 to st.n - 1 do
    match st.arena.(i) with
    | { lits = [ a; b ]; alive = true; _ } ->
        start.(L.neg a + 1) <- start.(L.neg a + 1) + 1;
        start.(L.neg b + 1) <- start.(L.neg b + 1) + 1
    | _ -> ()
  done;
  for x = 1 to nnodes do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let succ = Array.make start.(nnodes) 0 in
  let fill = Array.sub start 0 nnodes in
  let add x y =
    succ.(fill.(x)) <- y;
    fill.(x) <- fill.(x) + 1
  in
  for i = st.n - 1 downto 0 do
    match st.arena.(i) with
    | { lits = [ a; b ]; alive = true; _ } ->
        add (L.neg a) b;
        add (L.neg b) a
    | _ -> ()
  done;
  (start, succ)

(* iterative Tarjan over the literal graph; returns the component id of
   every literal (-1 for unvisited isolated nodes keeps them singleton)
   and the number of components *)
let tarjan_scc nnodes (start, succ) =
  let index = Array.make nnodes (-1) in
  let lowlink = Array.make nnodes 0 in
  let on_stack = Array.make nnodes false in
  let comp = Array.make nnodes (-1) in
  let stack = Array.make nnodes 0 and sp = ref 0 in
  (* explicit call stack, and per node its next successor *)
  let calls = Array.make nnodes 0 and depth = ref 0 in
  let next = Array.copy start in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    calls.(!depth) <- v;
    incr depth
  in
  let visit root =
    enter root;
    while !depth > 0 do
      let v = calls.(!depth - 1) in
      if next.(v) < start.(v + 1) then begin
        let w = succ.(next.(v)) in
        next.(v) <- next.(v) + 1;
        if index.(w) = -1 then enter w
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
      end
      else begin
        decr depth;
        if !depth > 0 then begin
          let p = calls.(!depth - 1) in
          lowlink.(p) <- min lowlink.(p) lowlink.(v)
        end;
        if lowlink.(v) = index.(v) then begin
          let popped = ref (-1) in
          while !popped <> v do
            decr sp;
            popped := stack.(!sp);
            on_stack.(!popped) <- false;
            comp.(!popped) <- !next_comp
          done;
          incr next_comp
        end
      end
    done
  in
  for v = 0 to nnodes - 1 do
    if index.(v) = -1 && start.(v + 1) > start.(v) then visit v
  done;
  (comp, !next_comp)

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
let merge_components st nnodes comp =
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
            remove_exist st y;
            mark_var st y;
            st.scc_merges <- st.scc_merges + 1;
            merged := true
          in
          match universals with
          | _ :: _ :: _ -> raise Refuted
          | [ u ] ->
              List.iter
                (fun m ->
                  if L.var m <> L.var u then begin
                    if not (Bitset.mem (L.var u) (deps_of st (L.var m))) then
                      raise Refuted;
                    merge_into u m
                  end)
                members
          | [] ->
              let rep =
                List.fold_left (fun a b -> if L.var b < L.var a then b else a)
                  (List.hd members) members
              in
              let d_rep = deps_of st (L.var rep) in
              let inter =
                List.fold_left
                  (fun acc m -> Bitset.inter acc (deps_of st (L.var m)))
                  d_rep members
              in
              set_deps st (L.var rep) inter;
              (* universal reduction may now drop more from its clauses *)
              if not (Bitset.equal inter d_rep) then mark_var st (L.var rep);
              List.iter (fun m -> if L.var m <> L.var rep then merge_into rep m) members))
    classes;
  !merged

let scc_pass st =
  let nnodes = 2 * st.nvars in
  let comp, ncomps = tarjan_scc nnodes (big_adjacency st) in
  (* as many components as visited literals: all singletons, no merge *)
  let visited = Array.fold_left (fun k c -> if c >= 0 then k + 1 else k) 0 comp in
  ncomps < visited && merge_components st nnodes comp

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

(* clause [i] ([c]) against clause [j]: deletes it if [c] subsumes
   it, strengthens it if it can; true if it changed it *)
let subsume_one st i c j =
  let d = st.arena.(j) in
  if j <> i && d.alive && c.csig land lnot d.csig = 0 then
    match relate (-1) c.lits d.lits with
    | Unrelated -> false
    | Subsumes ->
        st.cfg.subsumption
        && begin
             push_step st (Subsumed { clause = d.lits; by = c.lits });
             kill st d;
             st.subsumed <- st.subsumed + 1;
             true
           end
    | Strengthens l ->
        st.cfg.self_subsumption
        && begin
             push_step st (Strengthened { clause = d.lits; removed = L.neg l; by = c.lits });
             bump st d (-1);
             d.lits <- List.filter (fun k -> k <> L.neg l) d.lits;
             d.csig <- sig_of d.lits;
             bump st d 1;
             touch st j;
             Bytes.unsafe_set st.pending j '\001';
             (match d.lits with
             | [] -> raise Refuted
             | [ _; _ ] -> st.binaries_changed <- true
             | _ -> ());
             st.strengthened <- st.strengthened + 1;
             true
           end
  else false

let rec subsume_all st i c changed = function
  | [] -> changed
  | j :: rest -> subsume_all st i c (subsume_one st i c j || changed) rest

(* the first literal of the clause whose variable occurs least *)
let rec rarest st best best_n = function
  | [] -> best
  | l :: rest ->
      let k = occ_count st l + occ_count st (L.neg l) in
      if k < best_n then rarest st l k rest else rarest st best best_n rest

(* clause [i] deletes every clause it subsumes and strengthens every
   clause it can, all found in the two occurrence lists of its
   least-occurring variable; true if it changed any *)
let subsume_with st i =
  let c = st.arena.(i) in
  let pivot = rarest st (-1) max_int c.lits in
  let changed = subsume_all st i c false st.occ.(pivot) in
  subsume_all st i c changed st.occ.(L.neg pivot)

(* the live clause ids, shortest first, ties in arena order (a
   counting sort on the length) *)
let by_length st =
  let len = Array.make st.n (-1) in
  let longest = ref 0 in
  for i = 0 to st.n - 1 do
    let c = st.arena.(i) in
    if c.alive then begin
      len.(i) <- List.length c.lits;
      longest := max !longest len.(i)
    end
  done;
  let next = Array.make (!longest + 2) 0 in
  Array.iter (fun k -> if k >= 0 then next.(k + 1) <- next.(k + 1) + 1) len;
  for k = 1 to !longest + 1 do
    next.(k) <- next.(k) + next.(k - 1)
  done;
  let order = Array.make next.(!longest + 1) 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        order.(next.(k)) <- i;
        next.(k) <- next.(k) + 1
      end)
    len;
  order

(* Backward subsumption and self-subsuming strengthening, MiniSat
   style: the queued clauses, shortest first, each through
   [subsume_with]. The first pass ([all]) queues every clause. A later
   one queues the clauses rewritten or strengthened since the last
   pass, and every clause sharing a variable with one that [simplify]
   rewrote: substitution can add literals to it, so an untouched clause
   may now subsume it. No other clause can have gained a partner, since
   clauses otherwise only shrink. A clause strengthened before its turn
   is taken at its turn, one strengthened after it in the next pass.
   The occurrence lists are rebuilt only when a rewrite added to them
   out of order; stale entries are skipped. *)
let subsume_pass st ~all =
  if (not all) && Array.for_all (fun m -> m = 0) st.mark then false
  else begin
    if not st.occ_sorted then build_occ st;
    let touch_with l j = if List.mem l (st.arena.(j)).lits then touch st j in
    for i = 0 to st.n - 1 do
      let c = st.arena.(i) in
      if c.alive && st.mark.(i) land rewritten <> 0 then
        List.iter
          (fun l ->
            List.iter (touch_with l) st.occ.(l);
            List.iter (touch_with (L.neg l)) st.occ.(L.neg l))
          c.lits
    done;
    for i = 0 to st.n - 1 do
      st.mark.(i) <- (if (st.arena.(i)).alive then st.mark.(i) land queued else 0)
    done;
    Array.fold_left
      (fun changed i ->
        if (st.arena.(i)).alive && (all || st.mark.(i) <> 0) then begin
          st.mark.(i) <- 0;
          subsume_with st i || changed
        end
        else changed)
      false (by_length st)
  end

(* A variable [v] is dependency-below [D_y] when a Skolem function over
   [D_y] may read it: a universal in [D_y], or an existential whose own
   dependency set is contained in [D_y]. *)
let dep_below st v d_y =
  if is_univ st v then Bitset.mem v d_y
  else match st.deps.(v) with Some dv -> Bitset.subset dv d_y | None -> false

(* ---------------------------------------------------- gate detection *)

(* Tseitin AND/XOR definitions among the fixpoint's clauses, found
   through a table of the binary clauses (AND) and the occurrence lists
   (XOR). A gate is kept only when it is
   Henkin-legal (every input is dependency-below the output), so substituting the output by its function never widens a
   dependency requirement. Candidates are collected AND first, each kind
   in arena order, the first definition of an output wins; then an
   acyclic subset is accepted: a gate once every input that is itself a
   candidate output has been accepted (a cycle leaves all its members
   rejected, keeping their clauses — conservative but sound). The
   accepted gates' defining clauses leave the arena. *)

let gate_inputs g = match g.fn with G_and (a, b) | G_xor (a, b) -> (L.var a, L.var b)

(* bit i set iff the i-th literal of the clause is negated *)
let sign_mask lits =
  let rec go bit = function [] -> 0 | l :: rest -> (if L.is_neg l then bit else 0) lor go (bit lsl 1) rest in
  go 1 lits

(* The first live binary clause (l | m) by arena id, for every pair:
   an open-addressing table keyed by the pair, filled in arena order,
   so a pair keeps its first clause. [partner t l m] is that clause's
   id, or -1. *)
type binaries = { keys : int array; ids : int array; nlits : int }

let rec probe keys key s =
  if keys.(s) = key || keys.(s) < 0 then s else probe keys key ((s + 1) land (Array.length keys - 1))

let pair_slot t key =
  let h = key * 0x9E3779B97F4A7C1 in
  probe t.keys key ((h lxor (h lsr 32)) land (Array.length t.keys - 1))

let pair_key t l m = if l < m then (l * t.nlits) + m else (m * t.nlits) + l

let binaries st =
  let count = ref 0 in
  for i = 0 to st.n - 1 do
    match st.arena.(i) with { lits = [ _; _ ]; alive = true; _ } -> incr count | _ -> ()
  done;
  let cap = ref 16 in
  while !cap < 2 * !count do
    cap := 2 * !cap
  done;
  let t = { keys = Array.make !cap (-1); ids = Array.make !cap (-1); nlits = 2 * st.nvars } in
  for i = 0 to st.n - 1 do
    match st.arena.(i) with
    | { lits = [ a; b ]; alive = true; _ } ->
        let key = pair_key t a b in
        let s = pair_slot t key in
        if t.keys.(s) < 0 then begin
          t.keys.(s) <- key;
          t.ids.(s) <- i
        end
    | _ -> ()
  done;
  t

let partner t l m = t.ids.(pair_slot t (pair_key t l m))

let detect_gates st =
  let bins = binaries st in
  (* [out] is a live existential and both inputs are dependency-below it *)
  let legal out a b =
    match st.deps.(out) with
    | None -> false
    | Some d_out -> a <> out && dep_below st a d_out && b <> out && dep_below st b d_out
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
  (* AND: ternary (p|q|r) plus binaries (!p|!q) (!p|!r) gives
     p = !q & !r *)
  let and_at i p q r =
    let jq = partner bins (L.neg p) (L.neg q) and jr = partner bins (L.neg p) (L.neg r) in
    if jq >= 0 && jr >= 0 && legal (L.var p) (L.var q) (L.var r) then
      consume (L.var p) (L.is_neg p) (G_and (L.neg q, L.neg r)) [ i; jq; jr ]
  in
  for i = 0 to st.n - 1 do
    match (st.arena.(i)).lits with
    | [ a; b; c ] when (st.arena.(i)).alive ->
        and_at i a b c;
        and_at i b a c;
        and_at i c a b
    | _ -> ()
  done;
  (* XOR: the four odd-sign ternaries over a variable triple a < b < c
     encode a ^ b ^ c = 0. Each triple is handled at its first clause
     in arena order, collecting the others from the occurrence lists of
     its rarest variable; the output is the first of a, b, c that is
     still undefined and legal, out = the other two XORed. *)
  let odd m = m = 1 || m = 2 || m = 4 || m = 7 in
  let occ_var v = occ_count st (L.of_var v) + occ_count st (L.neg (L.of_var v)) in
  (* per sign mask, the first clause over the triple with that mask *)
  let first = Array.make 8 max_int in
  for i = 0 to st.n - 1 do
    let c = st.arena.(i) in
    match c.lits with
    | [ l0; l1; l2 ]
      when c.alive && L.var l0 < L.var l1 && L.var l1 < L.var l2 && odd (sign_mask c.lits) -> (
        let v0 = L.var l0 and v1 = L.var l1 and v2 = L.var l2 in
        let pivot = if occ_var v1 < occ_var v0 then v1 else v0 in
        let pivot = if occ_var v2 < occ_var pivot then v2 else pivot in
        Array.fill first 0 8 max_int;
        let lowest = ref max_int in
        let note j =
          let d = st.arena.(j) in
          match d.lits with
          | [ k0; k1; k2 ] when d.alive && L.var k0 = v0 && L.var k1 = v1 && L.var k2 = v2 ->
              let m = sign_mask d.lits in
              if odd m then begin
                lowest := min !lowest j;
                first.(m) <- min first.(m) j
              end
          | _ -> ()
        in
        List.iter note st.occ.(L.of_var pivot);
        List.iter note st.occ.(L.neg (L.of_var pivot));
        if !lowest = i && List.for_all (fun m -> first.(m) < max_int) [ 1; 2; 4; 7 ] then begin
          let ids = [ first.(1); first.(2); first.(4); first.(7) ] in
          let try_out out a b =
            (not defined.(out))
            && legal out a b
            &&
            (consume out false (G_xor (L.of_var a, L.of_var b)) ids;
             true)
          in
          ignore (try_out v0 v1 v2 || try_out v1 v0 v2 || try_out v2 v0 v1)
        end)
    | _ -> ()
  done;
  let cands = List.rev !cands in
  let is_out = Array.make st.nvars false in
  List.iter (fun (g, _) -> is_out.(g.out_var) <- true) cands;
  let accepted = Array.make st.nvars false in
  let ready v = (not is_out.(v)) || accepted.(v) in
  let selected = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (g, ids) ->
        let a, b = gate_inputs g in
        if (not accepted.(g.out_var)) && ready a && ready b then begin
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

(* each rule pass of [run] is a span of its own *)
let phase name pass st = Obs.Span.with_ name (fun () -> pass st)

let run ?config ?(budget = Budget.unlimited) ?(gates = false) (p : problem) =
  let cfg = match config with Some c -> c | None -> config_of_mode default_mode in
  let declared_vars =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc l -> max acc (L.var l + 1)) acc c)
      p.num_vars p.clauses
  in
  let nvars = max 1 declared_vars in
  let clauses_before = List.length p.clauses in
  Obs.Span.with_ "inproc.run"
    ~attrs:[ ("clauses", Obs.Int clauses_before); ("vars", Obs.Int nvars) ]
  @@ fun () ->
  Obs.Metrics.incr c_runs;
  let st =
    {
      cfg;
      nvars;
      univs = p.univs;
      deps = Array.make (List.fold_left (fun k (y, _) -> max k (y + 1)) nvars p.deps) None;
      n_exist = 0;
      arena = Array.make clauses_before dummy_cls;
      n = 0;
      value = Array.make nvars (-1);
      sub = Array.init nvars L.of_var;
      occ = [||];
      occ_sorted = true;
      occ_n = Array.make (2 * nvars) 0;
      mark = Array.make clauses_before 0;
      pending = Bytes.make clauses_before '\001';
      visits = 0;
      binaries_changed = true;
      steps = [];
      units = 0;
      reduced_lits = 0;
      scc_merges = 0;
      subsumed = 0;
      strengthened = 0;
    }
  in
  List.iter (fun (y, d) -> set_deps st y d) p.deps;
  (* variables declared nowhere are existential with no dependencies,
     mirroring Pcnf.to_formula *)
  for v = 0 to declared_vars - 1 do
    if (not (is_univ st v)) && not (is_exist st v) then set_deps st v Bitset.empty
  done;
  List.iter
    (fun c ->
      let lits = sorted_lits c in
      st.arena.(st.n) <- { lits; alive = true; csig = sig_of lits };
      st.n <- st.n + 1)
    p.clauses;
  build_occ st;
  let lits_before = List.fold_left (fun acc c -> acc + List.length c) 0 p.clauses in
  let vars_before = st.n_exist + Bitset.cardinal st.univs in
  match
    let rounds = ref 0 in
    let continue_ = ref (cfg.max_rounds > 0) in
    while !continue_ && !rounds < cfg.max_rounds do
      Budget.check budget;
      incr rounds;
      (* a later round starts where the last one ended, on a closed
         [simplify]: running it again would find nothing *)
      let ch = ref (!rounds = 1 && phase "inproc.simplify" simplify st) in
      (* the SCCs of an unchanged implication graph are all merged *)
      if cfg.equivalences && st.binaries_changed then begin
        st.binaries_changed <- false;
        if phase "inproc.scc" scc_pass st then begin
          ignore (phase "inproc.simplify" simplify st);
          ch := true
        end
      end;
      if cfg.subsumption || cfg.self_subsumption then
        if phase "inproc.subsume" (subsume_pass ~all:(!rounds = 1)) st then begin
          ignore (phase "inproc.simplify" simplify st);
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
          phase "inproc.gates" detect_gates st
        end
        else []
      in
      let clauses = ref [] in
      for i = st.n - 1 downto 0 do
        let c = st.arena.(i) in
        if c.alive then clauses := c.lits :: !clauses
      done;
      let deps = ref [] in
      for y = Array.length st.deps - 1 downto 0 do
        Option.iter (fun d -> deps := (y, d) :: !deps) st.deps.(y)
      done;
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
          vars_after = st.n_exist + Bitset.cardinal st.univs;
        }
      in
      Obs.Metrics.incr ~by:rounds c_rounds;
      Obs.Metrics.incr ~by:st.visits c_simplify_visits;
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
        { clauses = !clauses; univs = st.univs; deps = !deps; gates; steps = List.rev st.steps; stats }
