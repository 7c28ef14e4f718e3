open Hqs_util

type clause = {
  mutable lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable removed : bool;
}

type result = Sat | Unsat

let dummy_clause = { lits = [||]; activity = 0.0; learnt = false; removed = true }

type t = {
  mutable ok : bool;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  watches : clause Vec.t Vec.t; (* indexed by literal *)
  assigns : int Vec.t; (* per var: 0 undef, 1 true, -1 false *)
  level : int Vec.t; (* per var *)
  reason : clause Vec.t; (* per var; dummy_clause = none *)
  activity : float Vec.t; (* per var *)
  polarity : bool Vec.t; (* per var: saved phase *)
  seen : bool Vec.t; (* per var: conflict-analysis scratch *)
  trail : int Vec.t; (* literals in assignment order *)
  trail_lim : int Vec.t; (* decision-level boundaries *)
  mutable qhead : int;
  order : Heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable conflicts : int;
  mutable max_learnts : float;
}

(* per-process counters; every solver instance (MaxSAT, the main loop's
   final SAT call, certification, iDQ) feeds the same series *)
let c_solves = Obs.Metrics.counter "sat.solves"
let c_conflicts = Obs.Metrics.counter "sat.conflicts"
let c_propagations = Obs.Metrics.counter "sat.propagations"

let create () =
  let activity = Vec.create ~dummy:0.0 () in
  let order = Heap.create ~cmp:(fun a b -> Vec.get activity a > Vec.get activity b) () in
  {
    ok = true;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    watches = Vec.create ~dummy:(Vec.create ~dummy:dummy_clause ()) ();
    assigns = Vec.create ~dummy:0 ();
    level = Vec.create ~dummy:(-1) ();
    reason = Vec.create ~dummy:dummy_clause ();
    activity;
    polarity = Vec.create ~dummy:false ();
    seen = Vec.create ~dummy:false ();
    trail = Vec.create ~dummy:(-1) ();
    trail_lim = Vec.create ~dummy:(-1) ();
    qhead = 0;
    order;
    var_inc = 1.0;
    cla_inc = 1.0;
    conflicts = 0;
    max_learnts = 4000.0;
  }

let num_vars t = Vec.size t.assigns
let is_ok t = t.ok

let new_var t =
  let v = num_vars t in
  Vec.push t.assigns 0;
  Vec.push t.level (-1);
  Vec.push t.reason dummy_clause;
  Vec.push t.activity 0.0;
  Vec.push t.polarity false;
  Vec.push t.seen false;
  Vec.push t.watches (Vec.create ~dummy:dummy_clause ());
  Vec.push t.watches (Vec.create ~dummy:dummy_clause ());
  Heap.insert t.order v;
  v

let ensure_var t v =
  while num_vars t <= v do
    ignore (new_var t)
  done

(* -1 false, 0 undef, 1 true *)
let lit_val t l =
  let a = Vec.get t.assigns (Lit.var l) in
  if l land 1 = 0 then a else -a

let decision_level t = Vec.size t.trail_lim

let var_bump t v =
  let a = Vec.get t.activity v +. t.var_inc in
  Vec.set t.activity v a;
  if a > 1e100 then begin
    for i = 0 to num_vars t - 1 do
      Vec.set t.activity i (Vec.get t.activity i *. 1e-100)
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Heap.update t.order v

let var_decay t = t.var_inc <- t.var_inc /. 0.95

let cla_bump t (c : clause) =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay t = t.cla_inc <- t.cla_inc /. 0.999

let watch t l = Vec.get t.watches l

let attach t c =
  Vec.push (watch t (Lit.neg c.lits.(0))) c;
  Vec.push (watch t (Lit.neg c.lits.(1))) c

let enqueue t l reason =
  let v = Lit.var l in
  Vec.set t.assigns v (if l land 1 = 0 then 1 else -1);
  Vec.set t.level v (decision_level t);
  Vec.set t.reason v reason;
  Vec.push t.trail l

(* Propagate all enqueued facts; return the conflicting clause if any. *)
let propagate t =
  let confl = ref dummy_clause in
  while !confl == dummy_clause && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    Obs.Metrics.incr c_propagations;
    let ws = watch t p in
    let n = Vec.size ws in
    let i = ref 0 and j = ref 0 in
    let false_lit = Lit.neg p in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.removed then () (* drop lazily-deleted clause from this list *)
      else begin
        (* ensure the false watched literal is at position 1 *)
        if c.lits.(0) = false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        if lit_val t c.lits.(0) = 1 then begin
          (* satisfied; keep watching *)
          Vec.set ws !j c;
          incr j
        end
        else begin
          (* search for a new literal to watch *)
          let len = Array.length c.lits in
          let k = ref 2 in
          while !k < len && lit_val t c.lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            c.lits.(1) <- c.lits.(!k);
            c.lits.(!k) <- false_lit;
            Vec.push (watch t (Lit.neg c.lits.(1))) c
          end
          else begin
            (* unit or conflicting *)
            Vec.set ws !j c;
            incr j;
            if lit_val t c.lits.(0) = -1 then begin
              confl := c;
              t.qhead <- Vec.size t.trail;
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr i;
                incr j
              done
            end
            else enqueue t c.lits.(0) c
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  if !confl == dummy_clause then None else Some !confl

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      Vec.set t.polarity v (Vec.get t.assigns v = 1);
      Vec.set t.assigns v 0;
      Vec.set t.reason v dummy_clause;
      Heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail
  end

(* First-UIP conflict analysis. Returns (learnt literals with the asserting
   literal first, backjump level). *)
let analyze t confl =
  let learnt = Vec.create ~dummy:(-1) () in
  Vec.push learnt (-1);
  (* placeholder for the asserting literal *)
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size t.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let cl = !c in
    if cl.learnt then cla_bump t cl;
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length cl.lits - 1 do
      let q = cl.lits.(k) in
      let v = Lit.var q in
      if (not (Vec.get t.seen v)) && Vec.get t.level v > 0 then begin
        var_bump t v;
        Vec.set t.seen v true;
        if Vec.get t.level v >= decision_level t then incr path_c else Vec.push learnt q
      end
    done;
    (* next clause to look at *)
    while not (Vec.get t.seen (Lit.var (Vec.get t.trail !index))) do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    let v = Lit.var !p in
    c := Vec.get t.reason v;
    Vec.set t.seen v false;
    decr path_c;
    if !path_c = 0 then continue := false
  done;
  Vec.set learnt 0 (Lit.neg !p);
  (* compute backjump level; move the max-level literal to position 1 *)
  let back_lvl = ref 0 in
  if Vec.size learnt > 1 then begin
    let max_i = ref 1 in
    for k = 2 to Vec.size learnt - 1 do
      if Vec.get t.level (Lit.var (Vec.get learnt k))
         > Vec.get t.level (Lit.var (Vec.get learnt !max_i))
      then max_i := k
    done;
    let tmp = Vec.get learnt 1 in
    Vec.set learnt 1 (Vec.get learnt !max_i);
    Vec.set learnt !max_i tmp;
    back_lvl := Vec.get t.level (Lit.var (Vec.get learnt 1))
  end;
  (* clear seen flags *)
  for k = 0 to Vec.size learnt - 1 do
    Vec.set t.seen (Lit.var (Vec.get learnt k)) false
  done;
  (learnt, !back_lvl)

let locked t c =
  Array.length c.lits > 0
  && Vec.get t.reason (Lit.var c.lits.(0)) == c
  && lit_val t c.lits.(0) = 1

let reduce_db t =
  let cmp (a : clause) (b : clause) = Float.compare a.activity b.activity in
  Vec.sort cmp t.learnts;
  let n = Vec.size t.learnts in
  let keep = Vec.create ~dummy:dummy_clause () in
  Vec.iteri
    (fun i c ->
      if i < n / 2 && (not (locked t c)) && Array.length c.lits > 2 then c.removed <- true
      else Vec.push keep c)
    t.learnts;
  Vec.clear t.learnts;
  Vec.iter (Vec.push t.learnts) keep

let add_clause_a t lits =
  if t.ok then begin
    cancel_until t 0;
    Array.iter (fun l -> ensure_var t (Lit.var l)) lits;
    (* simplify: sort, dedup, drop false lits, detect tautology / satisfied *)
    let lits = Array.copy lits in
    Array.sort Int.compare lits;
    let out = ref [] in
    let taut = ref false in
    let sat = ref false in
    let prev = ref (-1) in
    Array.iter
      (fun l ->
        if l <> !prev then begin
          if !prev >= 0 && Lit.var l = Lit.var !prev then taut := true;
          (match lit_val t l with
          | 1 -> sat := true
          | -1 -> () (* false at level 0: drop literal *)
          | _ -> out := l :: !out);
          prev := l
        end)
      lits;
    if not (!taut || !sat) then begin
      match !out with
      | [] -> t.ok <- false
      | [ l ] -> (
          enqueue t l dummy_clause;
          match propagate t with Some _ -> t.ok <- false | None -> ())
      | ls ->
          let c =
            { lits = Array.of_list ls; activity = 0.0; learnt = false; removed = false }
          in
          Vec.push t.clauses c;
          attach t c
    end
  end

let add_clause t lits = add_clause_a t (Array.of_list lits)

let luby y x =
  (* Luby restart sequence *)
  let rec find_size size seq x = if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1) x in
  let rec loop size seq x =
    if size - 1 = x then y ** float_of_int seq
    else begin
      let size = (size - 1) / 2 in
      let seq = seq - 1 in
      loop size seq (x mod size)
    end
  in
  let size, seq = find_size 1 0 x in
  loop size seq x

exception Result of result

let pick_branch_var t =
  let rec loop () =
    if Heap.is_empty t.order then None
    else begin
      let v = Heap.pop t.order in
      if Vec.get t.assigns v = 0 then Some v else loop ()
    end
  in
  loop ()

let solve ?(assumptions = []) ?(budget = Budget.unlimited) t =
  if not t.ok then Unsat
  else begin
    Obs.Metrics.incr c_solves;
    cancel_until t 0;
    let assumptions = Array.of_list assumptions in
    let restart_base = 100 in
    let restart_num = ref 0 in
    let conflicts_this_restart = ref 0 in
    let restart_limit = ref (int_of_float (luby 2.0 0) * restart_base) in
    let learnt_adjust = ref (max 100 (Vec.size t.clauses / 3)) in
    t.max_learnts <- float_of_int (max 4000 !learnt_adjust);
    let result =
      try
       (* top-level propagation *)
       (match propagate t with
       | Some _ ->
           t.ok <- false;
           raise (Result Unsat)
       | None -> ());
       while true do
         match propagate t with
         | Some confl ->
             t.conflicts <- t.conflicts + 1;
             Obs.Metrics.incr c_conflicts;
             incr conflicts_this_restart;
             if t.conflicts land 511 = 0 then Budget.check budget;
             if decision_level t = 0 then begin
               t.ok <- false;
               raise (Result Unsat)
             end;
             let learnt, back_lvl = analyze t confl in
             cancel_until t back_lvl;
             if Vec.size learnt = 1 then enqueue t (Vec.get learnt 0) dummy_clause
             else begin
               let c =
                 {
                   lits = Vec.to_array learnt;
                   activity = 0.0;
                   learnt = true;
                   removed = false;
                 }
               in
               Vec.push t.learnts c;
               attach t c;
               cla_bump t c;
               enqueue t (Vec.get learnt 0) c
             end;
             var_decay t;
             cla_decay t;
             if float_of_int (Vec.size t.learnts) > t.max_learnts then begin
               reduce_db t;
               t.max_learnts <- t.max_learnts *. 1.3
             end
         | None ->
             if !conflicts_this_restart >= !restart_limit then begin
               (* restart *)
               incr restart_num;
               conflicts_this_restart := 0;
               restart_limit := int_of_float (luby 2.0 !restart_num) * restart_base;
               cancel_until t 0;
               Budget.check budget
             end
             else if decision_level t < Array.length assumptions then begin
               (* push the next assumption *)
               let p = assumptions.(decision_level t) in
               match lit_val t p with
               | 1 -> Vec.push t.trail_lim (Vec.size t.trail) (* dummy level *)
               | -1 -> raise (Result Unsat)
               | _ ->
                   Vec.push t.trail_lim (Vec.size t.trail);
                   enqueue t p dummy_clause
             end
             else begin
               match pick_branch_var t with
               | None -> raise (Result Sat)
               | Some v ->
                   Vec.push t.trail_lim (Vec.size t.trail);
                   enqueue t (Lit.mk v ~neg:(not (Vec.get t.polarity v))) dummy_clause
             end
       done;
       assert false
      with Result r -> r
    in
    (match result with
    | Sat -> () (* keep the trail: the model is read from [assigns] *)
    | Unsat -> cancel_until t 0);
    result
  end

let value t v =
  match Vec.get t.assigns v with 1 -> true | -1 -> false | _ -> Vec.get t.polarity v

let lit_value t l = if Lit.is_neg l then not (value t (Lit.var l)) else value t (Lit.var l)
let model t = Array.init (num_vars t) (value t)
