(** Variable elimination for DQBF: Theorem 1 (universal), Theorem 2
    (existential with full dependencies) and Theorem 5 (unit/pure), plus
    prefix pruning for variables that left the matrix support.

    When a {!Model_trail.t} is supplied, every eliminated existential
    records enough information to reconstruct Skolem functions after a
    SAT verdict. *)

val universal : ?trail:Model_trail.t -> Formula.t -> int -> unit
(** Theorem 1. Eliminates universal [x]: the matrix becomes
    [phi[0/x] and phi[1/x][y'/y]] with a fresh copy [y'] of every
    existential in E_x; dependency sets lose [x].
    @raise Invalid_argument if [x] is not universal. *)

val theorem2 : ?trail:Model_trail.t -> Formula.t -> bool
(** Theorem 2, one step: of the existentials depending on every universal,
    quantifies the cheapest (the fewest cone nodes depend on it, counted
    in one {!Aig.Man.support_counts} walk; ties to the first in prefix
    order) with the quantifier localized
    ({!Aig.Man.exists_localized}), recording its positive cofactor as the
    Skolem definition. Counts [elim.existential]. [false] when no
    existential has full dependencies; the formula is then unchanged. *)

val innermost : ?trail:Model_trail.t -> Formula.t -> unit
(** One elimination under a linear prefix: the dependency graph is
    acyclic, every prefix variable is in the matrix, and the matrix is not
    constant. Takes a {!theorem2} step or, if no existential depends on
    every universal, quantifies the cheapest of the universals no
    existential depends on in the same way (Theorem 1 with nothing to
    copy). Counts [qbf.elim.quantifications]. *)

val unit_pure_round :
  ?trail:Model_trail.t ->
  Formula.t ->
  (int * Aig.Unitpure.status) list ->
  [ `Unsat | `Eliminated of int | `None ]
(** The eliminations of Theorem 5, given {!Aig.Unitpure.scan} of the
    current matrix (Theorem 6). [`Unsat] signals a universal unit variable
    (or an existential that is both positive and negative unit). *)

val prune_prefix :
  ?trail:Model_trail.t -> Formula.t -> (int * Aig.Unitpure.status) list -> unit
(** Remove prefix variables outside the matrix support (the paper's final
    remark in Section III-C), given {!Aig.Unitpure.scan} of the current
    matrix: the support is the set of variables the scan reached. Pruned
    existentials are don't-cares and record constant Skolem functions.
    One scan serves a round's pruning and its {!unit_pure_round}: pruning
    leaves the matrix as it is. *)
