(** Incremental Tseitin encoding of AIG cones into a SAT solver.

    Used for the QBF back end's final SAT calls, Skolem-model verification,
    the iDQ baseline, and semantic unit/pure checks in tests. Nodes are
    encoded on demand and shared across calls, so repeated queries over the
    same manager reuse clauses. *)

type t

val create : Sat.Solver.t -> t

val sat_lit : Man.t -> t -> Man.lit -> Sat.Lit.t
(** Encode the cone of the given AIG literal (if not already present) and
    return the corresponding SAT literal. *)

val sat_var_of_aig_var : Man.t -> t -> int -> Sat.Lit.t
(** SAT literal for an AIG input variable (creating the input if needed). *)
