(** Incremental Tseitin encoding of AIG cones into a SAT solver.

    {!solve} is the one-shot SAT call on an AIG literal: the HQS main
    loop's final call, Skolem-model verification, the reference expansion
    and iDQ's counterexample check all go through it. The iDQ baseline's
    ground solver uses the incremental encoder directly: nodes are encoded
    on demand and shared across calls, so repeated queries over the same
    manager reuse clauses. *)

type t

val create : Sat.Solver.t -> t

val sat_lit : Man.t -> t -> Man.lit -> Sat.Lit.t
(** Encode the cone of the given AIG literal (if not already present) and
    return the corresponding SAT literal. *)

val sat_var_of_aig_var : Man.t -> t -> int -> Sat.Lit.t
(** SAT literal for an AIG input variable (creating the input if needed). *)

val solve : ?budget:Hqs_util.Budget.t -> Man.t -> Man.lit -> (int -> bool) option
(** One SAT call on a fresh solver: is the literal satisfiable? [None]
    means unsatisfiable; [Some value] gives each input variable of the
    literal's cone its value in the model found, [false] for any other
    variable. A constant literal is answered without a call.
    @raise Hqs_util.Budget.Timeout if the budget expires. *)
