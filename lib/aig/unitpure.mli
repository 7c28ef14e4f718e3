(** Syntactic unit and pure variable detection on AIGs (Theorem 6 of the
    paper).

    A variable is *positive unit* if some path from its input node to the
    output carries no negation at all; *negative unit* if some path carries
    exactly one negation, placed directly on the edge leaving the input.
    It is *positive (negative) pure* if every input-to-output path has an
    even (odd) number of negations.

    These are sufficient syntactic criteria for the semantic notions of
    Definition 5; the scan is a single DFS with at most three visits per
    node — O(|formula| + |vars|) — and deliberately incomplete (Example 4
    of the paper shows a pure variable it misses). *)

type status = {
  pos_unit : bool;
  neg_unit : bool;
  pos_pure : bool;
  neg_pure : bool;
}

val no_status : status

val scan : Man.t -> Man.lit -> (int * status) list
(** Classify every variable in the support of the root, in increasing
    order of input node. The scan reaches every node of the root's cone,
    so the variables reported are exactly {!Man.support}: one scan serves
    prefix pruning as well as unit/pure elimination. Variables outside the
    support are not reported. A constant root reports nothing. Fanins are
    read through {!Man.node_fanin0}/{!Man.node_fanin1}, unchecked, and the
    per-node marks live in a {!Man.with_node_buffer} buffer. *)
