(** AIG-based QBF solving by quantifier elimination, in the style of
    AIGSOLVE (Pigorsch-Scholl), which the paper uses as its back end.

    Blocks are eliminated innermost-first: existential variables by
    or-ing, universal variables by and-ing the two cofactors. Each
    elimination is localized ({!Aig.Man.exists_localized}): only the part of
    the graph that contains the variable is cofactored. Between
    eliminations the solver applies unit/pure reductions (Theorems 5-6)
    and compacts the graph when it has doubled. Once a single quantifier
    kind remains, a single SAT call finishes the job.

    AIGSOLVE also converts the graph to a FRAIG from time to time; this
    back end does not: since quantifier localization and engine-order gate
    detection, no measured cone carried redundancy worth the SAT checks,
    and every sweep that still ran made its solve slower (DESIGN.md). *)

type config = {
  use_unitpure : bool;
  sat_shortcut : bool;  (** finish single-kind prefixes with one SAT call *)
}

val default_config : config

val solve :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  ?on_define:(int -> Aig.Man.t -> Aig.Man.lit -> unit) ->
  ?on_nodes:(int -> unit) ->
  Aig.Man.t ->
  Aig.Man.lit ->
  Prefix.t ->
  bool
(** [solve man matrix prefix] decides the QBF. Free variables of the matrix
    are treated as outermost existentials. The caller's manager is not
    modified (the cone is copied out first).

    When [on_define] is given, it is invoked as [on_define v man fn] each
    time an existential variable [v] is eliminated, where [fn] (a literal
    of [man], to be snapshotted immediately by the callback) is a valid
    choice function for [v] in terms of the variables still present —
    enough to reconstruct Skolem functions after a [true] answer.

    [on_nodes n] reports the size of the solver's own manager: after the
    copy, after each elimination step (before any compaction), and on a
    node-limit raise (then [n] is the limit), so a caller can track the
    peak the copy reaches.
    @raise Hqs_util.Budget.Timeout on deadline.
    @raise Hqs_util.Budget.Out_of_memory_budget on node-limit exhaustion. *)
