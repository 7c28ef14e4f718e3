(** Wall-clock and resource budgets, hierarchically.

    The paper aborts runs at 2 h / 8 GB; we mirror that with a per-run
    deadline, a heap-word governor sampled from [Gc.quick_stat], and the
    AIG node budget of {!Aig.Man}. Solvers poll [check] at coarse
    intervals and raise on exhaustion, so runs terminate promptly without
    signals.

    {!sub} derives a child budget for one sub-task of a run (an audit, a
    certificate): a fraction of the remaining time under the same memory
    ceiling, so a sub-task that runs long times out without taking the
    whole run's time. *)

exception Timeout
exception Out_of_memory_budget

type t

val unlimited : t

val of_seconds : float -> t
(** A budget with deadline [now + s]. *)

val sub : frac:float -> t -> t
(** [sub ~frac t] is a child budget: [t]'s deadline clipped to
    [now + frac * remaining t] ([t] itself when unlimited); the memory
    ceiling is inherited unchanged. A child never outlives its parent
    for [frac <= 1]. *)

val with_mem_limit_mb : t -> int -> t
(** Impose a heap ceiling of [mb] megabytes (major + minor heap words as
    reported by [Gc.quick_stat]). Inherited by {!sub}-budgets. *)

val check : t -> unit
(** @raise Timeout if the deadline has passed.
    @raise Out_of_memory_budget if the heap ceiling is exceeded. *)

val expired : t -> bool
(** This budget's own deadline has passed. *)

val remaining : t -> float
(** Seconds until this budget's deadline; [infinity] if unlimited. *)

val mem_exceeded : t -> bool
(** The heap ceiling (if any) is currently exceeded. *)

val mem_limit_words : t -> int option
val heap_words : unit -> int
(** Current heap size in words: the major heap per [Gc.quick_stat]
    (cheap: no heap walk) plus the mapped minor arena. *)

val now : unit -> float
(** The {!Mono} monotonic clock: seconds from an arbitrary origin,
    non-decreasing even under NTP wall-clock adjustment. All deadlines
    and elapsed times in this module are measured on it. *)
