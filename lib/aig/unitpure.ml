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

(* the state after an edge with complement bit [c], from state [s] *)
let next_state s c = if c = 0 then s else if s = 2 then 1 else 2

let scan man root =
  let size = Man.num_nodes man in
  Man.with_node_buffer man @@ fun marks ->
  Array.fill marks 0 size 0;
  (* pending AND nodes as [node * 4 + state] *)
  let stack = Hqs_util.Vec.create ~dummy:0 () in
  (* visit an edge from a context in state [s]; fanins are read raw, the
     nodes reached from [root] being valid *)
  let push_edge edge s =
    let c = edge land 1 and n = edge lsr 1 in
    let s' = next_state s c in
    let a = Man.node_fanin0 man n in
    if a = -1 then
      marks.(n) <-
        marks.(n)
        lor (if s' = 2 then seen_odd else seen_even)
        lor (if s' = 0 then unit_pos else 0)
        lor if s = 0 && c = 1 then unit_neg else 0
    else if a >= 0 && marks.(n) land (1 lsl s') = 0 then begin
      marks.(n) <- marks.(n) lor (1 lsl s');
      Hqs_util.Vec.push stack ((n * 4) + s')
    end
    (* constant node: nothing to record *)
  in
  push_edge root 0;
  while not (Hqs_util.Vec.is_empty stack) do
    let e = Hqs_util.Vec.pop stack in
    let n = e lsr 2 and s = e land 3 in
    push_edge (Man.node_fanin0 man n) s;
    push_edge (Man.node_fanin1 man n) s
  done;
  let acc = ref [] in
  for n = size - 1 downto 1 do
    let m = marks.(n) in
    if m <> 0 && Man.node_fanin0 man n = -1 then begin
      let has bit = m land bit <> 0 in
      let st =
        {
          pos_unit = has unit_pos;
          neg_unit = has unit_neg;
          pos_pure = has seen_even && not (has seen_odd);
          neg_pure = has seen_odd && not (has seen_even);
        }
      in
      acc := (Man.node_fanin1 man n, st) :: !acc
    end
  done;
  !acc
