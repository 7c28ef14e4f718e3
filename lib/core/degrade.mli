(** The graceful-degradation ladder.

    Two expensive sub-steps of HQS — MaxSAT minimum-set selection and the
    elimination-based QBF back end — are accelerators, not correctness
    requirements: each has a cheaper semantics-preserving substitute
    (greedy elimination set, QDPLL search). This module runs a stage under
    a child {!Hqs_util.Budget} and, when the stage fails {e recoverably}
    (its own soft deadline passed while the enclosing solve is alive, or
    an AIG node-limit blowup that is not the global heap governor),
    records the degradation and runs the declared fallback instead of
    aborting the whole solve.

    A ledger collects which degradations fired; {!Hqs.stats} exposes the
    chronological labels so harness reports can show a degradation
    column. *)

type reason = Stage_timeout | Node_limit | Injected

type event = { point : string; action : string; reason : reason }

type t
(** A ledger of degradation events for one solve. *)

val create : unit -> t

val events : t -> event list
(** Chronological. *)

val reason_label : reason -> string

val event_label : event -> string
(** ["point->action[reason]"], e.g. ["maxsat.minset->greedy[timeout]"]. *)

val attempt :
  t ->
  chaos:Hqs_util.Chaos.t ->
  budget:Hqs_util.Budget.t ->
  point:string ->
  action:string ->
  ?sub_seconds:float ->
  ?sub_frac:float ->
  primary:(Hqs_util.Budget.t -> 'a) ->
  fallback:(unit -> 'a) ->
  unit ->
  'a
(** [attempt ledger ~chaos ~budget ~point ~action ~primary ~fallback ()]
    runs [primary] under [Budget.sub ?seconds ?frac budget]. On
    [Budget.Timeout] with [budget] itself unexpired, or on
    [Budget.Out_of_memory_budget] while the heap governor of [budget] is
    not the culprit, the failure is recorded and [fallback] runs with the
    full remaining budget. Unrecoverable failures propagate. If the chaos
    plan fires at [point], [primary] is skipped entirely and [fallback]
    runs, recorded with reason [Injected]. The fallback itself is not
    protected: it must be cheap and total by design. *)
