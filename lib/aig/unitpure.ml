type status = { pos_unit : bool; neg_unit : bool; pos_pure : bool; neg_pure : bool }

let no_status = { pos_unit = false; neg_unit = false; pos_pure = false; neg_pure = false }

(* Per-node marks, one node-indexed array for both kinds of node. An input
   node collects the marks of its variable: *)
let seen_even = 1 (* reached along a path with an even number of negations *)
let seen_odd = 2
let unit_pos = 4 (* reached along a completely negation-free path *)
let unit_neg = 8 (* negation-free path ending in a complemented edge *)

(* An AND node collects the states it was entered in: (parity of negations
   so far, negation-free so far). Negation-free implies even parity, so
   only three states are reachable; we encode them as 0 = (even, negfree),
   1 = (even, not negfree), 2 = (odd, not negfree) and keep a 3-bit visited
   mask per node. *)
let state ~parity ~negfree = if negfree then 0 else if parity = 0 then 1 else 2

let scan man root =
  let size = Man.num_nodes man in
  let marks = Array.make size 0 in
  (* pending AND nodes as [node * 4 + state] *)
  let stack = Hqs_util.Vec.create ~dummy:0 () in
  (* visit an edge from a context with the given parity/negfree state *)
  let push_edge edge ~parity ~negfree =
    let c = Man.is_compl edge in
    let n = Man.node_of edge in
    let parity' = parity lxor if c then 1 else 0 in
    let negfree' = negfree && not c in
    if Man.is_input man (n * 2) then begin
      let bits =
        (if parity' = 0 then seen_even else seen_odd)
        lor (if negfree' then unit_pos else 0)
        lor if negfree && c then unit_neg else 0
      in
      marks.(n) <- marks.(n) lor bits
    end
    else if Man.is_and man (n * 2) then begin
      let s = state ~parity:parity' ~negfree:negfree' in
      if marks.(n) land (1 lsl s) = 0 then begin
        marks.(n) <- marks.(n) lor (1 lsl s);
        Hqs_util.Vec.push stack ((n * 4) + s)
      end
    end
    (* constant node: nothing to record *)
  in
  push_edge root ~parity:0 ~negfree:true;
  while not (Hqs_util.Vec.is_empty stack) do
    let e = Hqs_util.Vec.pop stack in
    let n = e / 4 and s = e land 3 in
    let parity = if s = 2 then 1 else 0 and negfree = s = 0 in
    let e0, e1 = Man.fanins man (n * 2) in
    push_edge e0 ~parity ~negfree;
    push_edge e1 ~parity ~negfree
  done;
  let acc = ref [] in
  for n = size - 1 downto 1 do
    let m = marks.(n) in
    if m <> 0 && Man.is_input man (n * 2) then begin
      let has bit = m land bit <> 0 in
      let st =
        {
          pos_unit = has unit_pos;
          neg_unit = has unit_neg;
          pos_pure = has seen_even && not (has seen_odd);
          neg_pure = has seen_odd && not (has seen_even);
        }
      in
      acc := (Man.var_of_input man (n * 2), st) :: !acc
    end
  done;
  !acc
