(** CDCL SAT solver: two-watched literals, 1UIP conflict-driven clause
    learning, VSIDS variable activities, phase saving, Luby restarts and
    activity-based deletion of learnt clauses.

    This is the reasoning substrate for the whole reproduction: the partial
    MaxSAT solver, the final SAT calls of the QBF back end, certification
    and the instantiation-based iDQ baseline all run on it. Conflicts,
    propagations and solve calls are fed to the process-wide
    [Obs.Metrics] series ["sat.conflicts"], ["sat.propagations"] and
    ["sat.solves"]. *)

type t

type result = Sat | Unsat

val create : unit -> t

val new_var : t -> int
(** Allocate the next variable id. *)

val ensure_var : t -> int -> unit
(** Make sure variable id [v] (and all below it) exist. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
val add_clause_a : t -> Lit.t array -> unit
(** Add a clause (level-0 simplification applied: true clauses dropped,
    false literals removed, tautologies dropped). The array is not kept. *)

val is_ok : t -> bool
(** False once the clause database is known unsatisfiable at level 0. *)

val solve :
  ?assumptions:Lit.t list ->
  ?budget:Hqs_util.Budget.t ->
  t ->
  result
(** Decide satisfiability under the given assumptions. The solver can be
    reused incrementally: more variables and clauses may be added after a
    call, and further [solve] calls made.
    @raise Hqs_util.Budget.Timeout when the budget deadline passes. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer (unassigned vars read
    as their saved phase). *)

val lit_value : t -> Lit.t -> bool
val model : t -> bool array
