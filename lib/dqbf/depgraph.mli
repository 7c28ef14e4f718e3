(** The dependency graph of a DQBF (Definition 4): nodes are existential
    variables, with an edge y -> y' iff D_y is not a subset of D_y'.

    Theorem 3: the DQBF has an equivalent QBF prefix iff the graph is
    acyclic. Theorem 4 reduces cyclicity to the existence of a pair of
    incomparable dependency sets, so everything here works on pairs. *)

val edges : Formula.t -> (int * int) list
(** All edges of the dependency graph (for inspection and tests). *)

val incomparable_pairs : Formula.t -> (int * int) list
(** The set C_psi of binary cycles: unordered pairs (y, y') with
    incomparable dependency sets; each pair reported once with y < y'. *)

val is_acyclic : Formula.t -> bool
(** Theorem 4: acyclic iff no incomparable pair; stops at the first one. *)
