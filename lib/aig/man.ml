open Hqs_util

type lit = int

(* Nodes stay below 2^30, so literals stay below 2^31 and an ordered fanin
   pair packs into one int key [(a lsl 31) lor b] without collisions. *)
let max_nodes = 1 lsl 30
let pack a b = (a lsl 31) lor b
let lit_mask = (1 lsl 31) - 1

module Strash = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* multiplicative mix: Hashtbl.Make picks buckets by the low bits *)
  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

(* Node-indexed buffers of one walk. A walk takes a scratch from its
   manager's pool and returns it when done, so a walk started from inside
   another walk's callback gets buffers of its own. A walk that raises
   simply drops its scratch; the next walk allocates a fresh one. *)
type scratch = { mutable order : int array; mutable vals : int array }

type t = {
  mutable fanin0 : int array; (* AND: fanin edge; input: -1; const: -2 *)
  mutable fanin1 : int array; (* AND: fanin edge; input: variable id; const: -2 *)
  mutable size : int;
  strash : int Strash.t; (* packed fanin pair -> node *)
  input_of_var : int Vec.t; (* var -> node index, -1 if absent *)
  mutable num_inputs : int;
  mutable node_limit : int; (* at most max_nodes *)
  mutable mark : int array; (* [mark.(n) = stamp]: n reached by the current walk *)
  mutable stamp : int;
  mutable stack : int array; (* DFS stack of [cone_order] *)
  mutable pool : scratch list; (* free scratches *)
}

let false_ = 0
let true_ = 1

(* process-wide series across all managers (compaction replaces the
   manager; the counters keep accumulating) *)
let c_strash_hits = Obs.Metrics.counter "aig.strash_hits"
let c_strash_misses = Obs.Metrics.counter "aig.strash_misses"
let c_nodes_alloc = Obs.Metrics.counter "aig.nodes_alloc"

let clamp_limit = function None -> max_nodes | Some n -> Int.min n max_nodes

let create ?node_limit () =
  let m =
    {
      fanin0 = Array.make 16 min_int;
      fanin1 = Array.make 16 min_int;
      size = 1;
      strash = Strash.create 1024;
      input_of_var = Vec.create ~dummy:(-1) ();
      num_inputs = 0;
      node_limit = clamp_limit node_limit;
      mark = [||];
      stamp = 0;
      stack = [||];
      pool = [];
    }
  in
  (* node 0: constant false *)
  m.fanin0.(0) <- -2;
  m.fanin1.(0) <- -2;
  m

let set_node_limit m limit = m.node_limit <- clamp_limit limit
let node_limit m = if m.node_limit >= max_nodes then None else Some m.node_limit
let num_nodes m = m.size
let num_ands m = num_nodes m - m.num_inputs - 1
let num_inputs m = m.num_inputs

let compl_ l = l lxor 1
let apply_sign l ~neg = if neg then compl_ l else l
let node_of l = l lsr 1
let is_compl l = l land 1 = 1
let is_const l = node_of l = 0
let is_true l = l = true_
let is_false l = l = false_

let check_node m n = if n < 0 || n >= m.size then invalid_arg "Aig.Man: node out of range"
let node_is_input m n =
  check_node m n;
  n > 0 && m.fanin0.(n) = -1

let node_is_and m n =
  check_node m n;
  n > 0 && m.fanin0.(n) >= 0

let is_input m l = node_is_input m (node_of l)
let is_and m l = node_is_and m (node_of l)

let var_of_input m l =
  let n = node_of l in
  if not (node_is_input m n) then invalid_arg "Aig.var_of_input";
  m.fanin1.(n)

let fanins m l =
  let n = node_of l in
  if not (node_is_and m n) then invalid_arg "Aig.fanins";
  (m.fanin0.(n), m.fanin1.(n))

let node_fanin0 m n = m.fanin0.(n)
let node_fanin1 m n = m.fanin1.(n)

let grow a cap =
  let b = Array.make cap min_int in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc_node m f0 f1 =
  let n = m.size in
  if n >= m.node_limit then raise Budget.Out_of_memory_budget;
  if n = Array.length m.fanin0 then begin
    m.fanin0 <- grow m.fanin0 (2 * n);
    m.fanin1 <- grow m.fanin1 (2 * n)
  end;
  m.fanin0.(n) <- f0;
  m.fanin1.(n) <- f1;
  m.size <- n + 1;
  Obs.Metrics.incr c_nodes_alloc;
  n

let input m v =
  if v < 0 then invalid_arg "Aig.input: negative variable";
  Vec.grow_to m.input_of_var (v + 1) (-1);
  let existing = Vec.get m.input_of_var v in
  if existing >= 0 then existing * 2
  else begin
    let n = alloc_node m (-1) v in
    Vec.set m.input_of_var v n;
    m.num_inputs <- m.num_inputs + 1;
    n * 2
  end

let mk_and m a b =
  if a = false_ || b = false_ then false_
  else if a = true_ then b
  else if b = true_ then a
  else if a = b then a
  else if a = compl_ b then false_
  else begin
    let lo = if a <= b then a else b and hi = if a <= b then b else a in
    let key = pack lo hi in
    match Strash.find m.strash key with
    | n ->
        Obs.Metrics.incr c_strash_hits;
        n * 2
    | exception Not_found ->
        Obs.Metrics.incr c_strash_misses;
        let n = alloc_node m lo hi in
        Strash.add m.strash key n;
        n * 2
  end

let mk_or m a b = compl_ (mk_and m (compl_ a) (compl_ b))

let mk_xor m a b =
  (* (a and not b) or (not a and b) *)
  mk_or m (mk_and m a (compl_ b)) (mk_and m (compl_ a) b)

let mk_iff m a b = compl_ (mk_xor m a b)
let mk_ite m c a b = mk_or m (mk_and m c a) (mk_and m (compl_ c) b)

(* balanced reduction keeps cone depth logarithmic in the list length *)
let balanced_reduce op neutral = function
  | [] -> neutral
  | l ->
      let arr = ref (Array.of_list l) in
      while Array.length !arr > 1 do
        let a = !arr in
        let n = Array.length a in
        let next = Array.make ((n + 1) / 2) neutral in
        for i = 0 to (n / 2) - 1 do
          next.(i) <- op a.(2 * i) a.((2 * i) + 1)
        done;
        if n land 1 = 1 then next.((n - 1) / 2) <- a.(n - 1);
        arr := next
      done;
      !arr.(0)

let mk_and_list m l = balanced_reduce (mk_and m) true_ l
let mk_or_list m l = balanced_reduce (mk_or m) false_ l

(* ------------------------------------------------------------- traversal *)

let take m =
  match m.pool with
  | s :: rest ->
      m.pool <- rest;
      s
  | [] -> { order = [||]; vals = [||] }

let give m s = m.pool <- s :: m.pool

(* a fresh stamp and a mark array covering every node *)
let new_stamp m =
  if Array.length m.mark < m.size then m.mark <- Array.make (Array.length m.fanin0) 0;
  m.stamp <- m.stamp + 1;
  m.stamp

(* [s.vals] covering every node; entries are garbage until a walk writes them *)
let node_vals m s =
  if Array.length s.vals < m.size then s.vals <- Array.make (Array.length m.fanin0) 0;
  s.vals

(* The cone of [roots] in DFS postorder (fanins first, each node once),
   written to [s.order]; returns its length. Roots are pushed in list order
   and popped last-first, and fanin1 is explored before fanin0: exactly the
   order of the reference Hashtbl/Stack DFS, on which compaction numbering
   depends. The order is complete before any caller code runs. *)
let cone_order m s roots =
  let stamp = new_stamp m in
  let mark = m.mark and f0 = m.fanin0 and f1 = m.fanin1 in
  let rec push_roots sp = function
    | [] -> sp
    | r :: rest ->
        let n = node_of r in
        check_node m n;
        if sp = Array.length m.stack then m.stack <- grow m.stack ((2 * sp) + 16);
        m.stack.(sp) <- n lsl 1;
        push_roots (sp + 1) rest
  in
  let sp = ref (push_roots 0 roots) and len = ref 0 in
  while !sp > 0 do
    decr sp;
    let e = m.stack.(!sp) in
    let n = e lsr 1 in
    if e land 1 = 1 then begin
      if !len = Array.length s.order then s.order <- grow s.order ((2 * !len) + 16);
      s.order.(!len) <- n;
      incr len
    end
    else if mark.(n) <> stamp then begin
      mark.(n) <- stamp;
      (* room for the three pushes below *)
      if !sp + 3 > Array.length m.stack then m.stack <- grow m.stack ((2 * !sp) + 16);
      let stack = m.stack in
      stack.(!sp) <- e lor 1;
      incr sp;
      let a = f0.(n) in
      if n > 0 && a >= 0 then begin
        (* a child marked now stays marked: skipping it here is what the
           reference's pop-time check would do anyway *)
        let c0 = a lsr 1 and c1 = f1.(n) lsr 1 in
        if mark.(c0) <> stamp then begin
          stack.(!sp) <- c0 lsl 1;
          incr sp
        end;
        if mark.(c1) <> stamp then begin
          stack.(!sp) <- c1 lsl 1;
          incr sp
        end
      end
    end
  done;
  !len

(* run [k order len] over the cone of [roots], on a scratch of its own *)
let walk m roots k =
  let s = take m in
  let len = cone_order m s roots in
  let r = k s len in
  give m s;
  r

let with_node_buffer m k =
  let s = take m in
  let r = k (node_vals m s) in
  give m s;
  r

let iter_cone m roots f =
  walk m roots (fun s len ->
      for i = 0 to len - 1 do
        f s.order.(i)
      done)

let support m root =
  walk m [ root ] (fun s len ->
      let acc = ref [] in
      for i = 0 to len - 1 do
        let n = s.order.(i) in
        if n > 0 && m.fanin0.(n) = -1 then acc := m.fanin1.(n) :: !acc
      done;
      Bitset.of_list !acc)

let cone_size m root =
  walk m [ root ] (fun s len ->
      let count = ref 0 in
      for i = 0 to len - 1 do
        let n = s.order.(i) in
        if n > 0 && m.fanin0.(n) >= 0 then incr count
      done;
      !count)

(* Bit-sliced support counts, one pass over the cone per word of
   [bits_per_word] variables of [vars]. In the pass for word [k],
   [masks.(n)] is node [n]'s support restricted to variables [k *
   bits_per_word] to [k * bits_per_word + bits_per_word - 1] of [vars], one
   bit each, and is added into vertical counters: [planes.((k *
   count_planes) + p)] holds bit [p] of each of those variables' counts. A
   carry ripples up only as far as it reaches, about two word operations
   per node and word. *)
let bits_per_word = Sys.int_size - 1
let count_planes = 31 (* a cone has fewer than 2^31 nodes *)

let support_counts m root vars =
  let s = take m in
  let len = cone_order m s [ root ] in
  let stamp = m.stamp in
  let order = s.order and masks = node_vals m s in
  let f0 = m.fanin0 and f1 = m.fanin1 in
  (* the input nodes of [vars] in the cone, [-1] for the others *)
  let nodes =
    Array.of_list
      (List.map
         (fun v ->
           let n = if v < Vec.size m.input_of_var then Vec.get m.input_of_var v else -1 in
           if n >= 0 && m.mark.(n) = stamp then n else -1)
         vars)
  in
  let nv = Array.length nodes in
  let nw = (nv + bits_per_word - 1) / bits_per_word in
  let planes = Array.make (nw * count_planes) 0 in
  (* set the input masks of word [k]; [on:false] clears them again *)
  let seed k ~on =
    for j = k * bits_per_word to Int.min nv ((k + 1) * bits_per_word) - 1 do
      let n = nodes.(j) in
      if n >= 0 then masks.(n) <- (if on then masks.(n) lor (1 lsl (j mod bits_per_word)) else 0)
    done
  in
  let cone = ref 0 in
  for i = 0 to len - 1 do
    let n = order.(i) in
    if n > 0 && f0.(n) >= 0 then incr cone else masks.(n) <- 0
  done;
  for k = 0 to nw - 1 do
    seed k ~on:true;
    let base = k * count_planes in
    for i = 0 to len - 1 do
      let n = order.(i) in
      let a = f0.(n) in
      if n > 0 && a >= 0 then masks.(n) <- masks.(a lsr 1) lor masks.(f1.(n) lsr 1);
      let carry = ref masks.(n) and p = ref base in
      while !carry <> 0 do
        let c = planes.(!p) in
        planes.(!p) <- c lxor !carry;
        carry := c land !carry;
        incr p
      done
    done;
    seed k ~on:false
  done;
  give m s;
  let cost j =
    let base = j / bits_per_word * count_planes and bit = j mod bits_per_word in
    let c = ref 0 in
    for p = count_planes - 1 downto 0 do
      c := (!c lsl 1) lor ((planes.(base + p) lsr bit) land 1)
    done;
    !c
  in
  (Array.init nv cost, !cone)

(* Bottom-up evaluation over the cone of [roots], sharing one memo across
   them: each node gets an int from its fanins' ints. [leaf] gives the
   value of an input variable, [band] combines the two fanin values of an
   AND and [bnot] complements a value read through a complemented edge. *)
let eval_gen m roots ~leaf ~band ~bnot ~bfalse =
  walk m roots (fun s len ->
      let vals = node_vals m s in
      let get e =
        let v = vals.(node_of e) in
        if is_compl e then bnot v else v
      in
      for i = 0 to len - 1 do
        let n = s.order.(i) in
        let a = m.fanin0.(n) in
        vals.(n) <-
          (if n = 0 then bfalse
           else if a = -1 then leaf m.fanin1.(n)
           else band (get a) (get m.fanin1.(n)))
      done;
      List.map get roots)

let eval_one m root ~leaf ~band ~bnot ~bfalse =
  match eval_gen m [ root ] ~leaf ~band ~bnot ~bfalse with [ v ] -> v | _ -> assert false

let eval m root assignment =
  eval_one m root
    ~leaf:(fun v -> if assignment v then 1 else 0)
    ~band:( land ) ~bnot:(fun b -> 1 - b) ~bfalse:0
  = 1

(* [vals.(n)] is 1 when node [n] depends on [v]: the OR of the fanins' *)
let depends_on m roots v =
  walk m roots (fun s len ->
      let vals = node_vals m s and f0 = m.fanin0 and f1 = m.fanin1 in
      for i = 0 to len - 1 do
        let n = s.order.(i) in
        let a = f0.(n) in
        vals.(n) <-
          (if a >= 0 then vals.(a lsr 1) lor vals.(f1.(n) lsr 1)
           else Bool.to_int (a = -1 && f1.(n) = v))
      done;
      List.map (fun r -> vals.(node_of r) = 1) roots)

(* Walks the top AND-tree through non-complemented edges. A literal is seen
   once: [vals.(n)] holds the polarities of node [n] seen so far, valid
   while [mark.(n)] carries this call's stamp. *)
let and_conjuncts m root =
  let s = take m in
  let vals = node_vals m s in
  let stamp = new_stamp m in
  let acc = ref [] in
  let rec go l =
    let n = node_of l and bit = 1 lsl (l land 1) in
    let seen = if m.mark.(n) = stamp then vals.(n) else 0 in
    if seen land bit = 0 then begin
      m.mark.(n) <- stamp;
      vals.(n) <- seen lor bit;
      if (not (is_compl l)) && n > 0 && m.fanin0.(n) >= 0 then begin
        go m.fanin0.(n);
        go m.fanin1.(n)
      end
      else acc := l :: !acc
    end
  in
  check_node m (node_of root);
  go root;
  give m s;
  List.rev !acc

let or_disjuncts m root = List.map compl_ (and_conjuncts m (compl_ root))

(* --------------------------------------------------------- substitutions *)

(* the cone of [roots] rebuilt bottom-up in manager [dst], inputs mapped by [leaf] *)
let rebuild m roots dst ~leaf = eval_gen m roots ~leaf ~band:(mk_and dst) ~bnot:compl_ ~bfalse:false_

(* [rebuild] within [m], except that an AND whose two fanin values are
   its own fanins is kept in place: [mk_and] would find the node itself in
   the strash, so it counts as that strash hit. The fanin arrays are read
   afresh per node: building nodes may reallocate them. *)
let compose_list m roots subst =
  walk m roots (fun s len ->
      let vals = node_vals m s in
      let get e = vals.(e lsr 1) lxor (e land 1) in
      for i = 0 to len - 1 do
        let n = s.order.(i) in
        let a = m.fanin0.(n) in
        vals.(n) <-
          (if n = 0 then false_
           else if a = -1 then (match subst m.fanin1.(n) with Some f -> f | None -> n * 2)
           else begin
             let b = m.fanin1.(n) in
             let a' = get a and b' = get b in
             if a' = a && b' = b then begin
               Obs.Metrics.incr c_strash_hits;
               n * 2
             end
             else mk_and m a' b'
           end)
      done;
      List.map get roots)

let compose m root subst =
  match compose_list m [ root ] subst with [ r ] -> r | _ -> assert false

let cofactor m root ~var ~value =
  let c = if value then true_ else false_ in
  compose m root (fun v -> if v = var then Some c else None)

let exists m root ~var =
  mk_or m (cofactor m root ~var ~value:false) (cofactor m root ~var ~value:true)

let forall m root ~var =
  mk_and m (cofactor m root ~var ~value:false) (cofactor m root ~var ~value:true)

(* ------------------------------------------------ localized quantification *)

(* [parts] cofactored in one walk per value, the memo shared across parts *)
let cofactor_list m parts ~var ~value =
  compose_list m parts (fun w -> if w = var then Some value else None)

let exists_root m root ~var =
  match or_disjuncts m root with
  | _ :: _ :: _ as parts ->
      (* ∃ distributes over a disjunction: each disjunct with [var] is
         replaced by the disjunction of its cofactors, in place *)
      let tagged = List.combine parts (depends_on m parts var) in
      let touched = List.filter_map (fun (p, d) -> if d then Some p else None) tagged in
      let rec merge tagged c0 c1 =
        match (tagged, c0, c1) with
        | (p, false) :: tagged, _, _ -> p :: merge tagged c0 c1
        | (_, true) :: tagged, a :: c0, b :: c1 -> mk_or m a b :: merge tagged c0 c1
        | _ -> []
      in
      mk_or_list m
        (merge tagged
           (cofactor_list m touched ~var ~value:false_)
           (cofactor_list m touched ~var ~value:true_))
  | _ -> (
      (* ∃v.(A ∧ B) = A ∧ ∃v.B when [var] is not in the support of A *)
      let parts = and_conjuncts m root in
      match List.partition snd (List.combine parts (depends_on m parts var)) with
      | [], _ -> root
      | touched, free ->
          let free = List.map fst free in
          (* with nothing to move past, the root is cofactored as it is
             rather than re-associated from its conjuncts *)
          let b = if free = [] then [ root ] else List.map fst touched in
          let cof value = mk_and_list m (cofactor_list m b ~var ~value) in
          mk_and_list m (free @ [ mk_or m (cof false_) (cof true_) ]))

(* [s.vals] covering every literal; entries are garbage until written *)
let lit_vals m s =
  if Array.length s.vals < 2 * m.size then s.vals <- Array.make (2 * Array.length m.fanin0) 0;
  s.vals

(* Three passes over the cone of [root]. Bottom-up, bit 0 of [flags.(n)]
   records whether node [n] depends on [var]. Top-down, ∃ is pushed from
   the root: bits 1 and 2 mark the plain and the complemented literal of
   [n] as reached, bit 3 a plain AND whose fanins both depend on [var] and
   which is therefore cofactored whole. Those ANDs are cofactored in one
   [compose_list] walk per value. Bottom-up again, [ex.(l)] is built as
   ∃var.l for every reached literal [l]. The fanin arrays are read afresh
   in that pass: building nodes may reallocate them. *)
let exists_pushed m root ~var =
  let s = take m in
  let len = cone_order m s [ root ] in
  let order = s.order and flags = node_vals m s in
  for i = 0 to len - 1 do
    let n = order.(i) in
    let a = m.fanin0.(n) in
    flags.(n) <-
      (if a >= 0 then (flags.(node_of a) lor flags.(node_of m.fanin1.(n))) land 1
       else Bool.to_int (a = -1 && m.fanin1.(n) = var))
  done;
  let dep l = flags.(node_of l) land 1 = 1 in
  let reach l = if dep l then flags.(node_of l) <- flags.(node_of l) lor (2 lsl (l land 1)) in
  reach root;
  let whole = ref [] in
  for i = len - 1 downto 0 do
    let n = order.(i) in
    let f = flags.(n) and a = m.fanin0.(n) and b = m.fanin1.(n) in
    if a >= 0 && f land 1 = 1 then begin
      if f land 4 <> 0 then begin
        (* ¬(a ∧ b) = ¬a ∨ ¬b, over which ∃ distributes *)
        reach (compl_ a);
        reach (compl_ b)
      end;
      if f land 2 <> 0 then
        if dep a && dep b then begin
          flags.(n) <- f lor 8;
          whole := (n * 2) :: !whole
        end
        else begin
          (* ∃ moves past the fanin free of [var] *)
          reach a;
          reach b
        end
    end
  done;
  let whole = !whole in
  let c0 = cofactor_list m whole ~var ~value:false_ in
  let c1 = cofactor_list m whole ~var ~value:true_ in
  let t = take m in
  let ex = lit_vals m t in
  let rec set_whole ls c0 c1 =
    match (ls, c0, c1) with
    | l :: ls, a :: c0, b :: c1 ->
        ex.(l) <- mk_or m a b;
        set_whole ls c0 c1
    | _ -> ()
  in
  set_whole whole c0 c1;
  let value l = if dep l then ex.(l) else l in
  for i = 0 to len - 1 do
    let n = order.(i) in
    let f = flags.(n) in
    if f land 1 = 1 then begin
      let a = m.fanin0.(n) and b = m.fanin1.(n) in
      if a < 0 then begin
        (* the input of [var] itself *)
        ex.(2 * n) <- true_;
        ex.((2 * n) + 1) <- true_
      end
      else begin
        if f land 4 <> 0 then ex.((2 * n) + 1) <- mk_or m (value (compl_ a)) (value (compl_ b));
        if f land 10 = 2 then ex.(2 * n) <- mk_and m (value a) (value b)
      end
    end
  done;
  let r = value root in
  give m t;
  give m s;
  r

let exists_localized m root ~var ~cone =
  let r = exists_root m root ~var in
  let size = cone_size m r in
  if size <= cone then (r, size)
  else begin
    let r' = exists_pushed m root ~var in
    let size' = cone_size m r' in
    if size' < size then (r', size') else (r, size)
  end

let compact m roots =
  let fresh = create ?node_limit:(node_limit m) () in
  (fresh, rebuild m roots fresh ~leaf:(input fresh))

(* ----------------------------------------------------------- introspection *)

module Internal = struct
  let raw_fanin0 m n =
    check_node m n;
    m.fanin0.(n)

  let raw_fanin1 m n =
    check_node m n;
    m.fanin1.(n)

  let strash_find m a b = Strash.find_opt m.strash (pack a b)
  let strash_iter m f = Strash.iter (fun k n -> f (k lsr 31) (k land lit_mask) n) m.strash
  let strash_size m = Strash.length m.strash
  let input_vars_size m = Vec.size m.input_of_var

  let input_node_of_var m v =
    if v >= 0 && v < Vec.size m.input_of_var then Vec.get m.input_of_var v else -1

  let set_fanin m ~node ~f0 ~f1 =
    check_node m node;
    m.fanin0.(node) <- f0;
    m.fanin1.(node) <- f1

  let strash_add m a b n = Strash.add m.strash (pack a b) n
  let strash_remove m a b = Strash.remove m.strash (pack a b)
end
