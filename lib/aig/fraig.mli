(** FRAIG-style functional reduction of AIG cones (Mishchenko et al.), the
    "conversion to FRAIGs from time to time" of Section II-C.

    Nodes are grouped into candidate equivalence classes by bit-parallel
    random simulation; candidate pairs are then proved or refuted with the
    CDCL solver. Proven-equivalent nodes are merged (up to complement), and
    counterexamples returned by the solver refine the simulation patterns.
    The result is a fresh manager containing only the reduced cones, with
    input variable ids preserved.

    The reduction is semantics-preserving by construction: merges happen
    only on UNSAT (proof) answers; conflict-limit hits merely lose
    reduction opportunities.

    The sweep is bounded by SAT work, not by time: once its solver has made
    a fixed number of propagations, the remaining nodes are copied through
    unmerged. The result is therefore the same on every run. *)

val reduce : ?budget:Hqs_util.Budget.t -> Man.t -> Man.lit list -> Man.t * Man.lit list
(** [reduce man roots] returns a functionally reduced copy of the cones.
    @raise Hqs_util.Budget.Timeout if the budget expires.
    @raise Hqs_util.Budget.Out_of_memory_budget if the node limit is hit. *)
