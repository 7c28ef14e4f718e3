(** Deterministic fault injection.

    Fallible solver stages are wired with named injection points (e.g.
    ["maxsat.minset"], ["fraig.initial"], ["qbf.elim"], ["elim.universal"]).
    A chaos plan arms a subset of those points with a seeded RNG; when an
    armed point fires, the caller behaves as if the stage had failed
    (stage timeout or resource blowup), so every degradation and fallback
    path is exercisable from ordinary unit tests without constructing a
    genuinely pathological instance.

    Injection is off by default ({!off} never fires) and fully
    deterministic: the firing sequence is a function of the seed, the
    point name, and the query order — independent of wall-clock time,
    global [Random] state, or other points. *)

type t

val off : t
(** Never fires; the production default. Querying it costs one branch. *)

val create : ?prob:float -> ?limit:int -> seed:int -> points:string list -> unit -> t
(** A chaos plan. [points] restricts injection to the named points; the
    empty list arms {e every} point. Each armed point fires on a query
    with probability [prob] (default 1.0), at most [limit] times in total
    (default 1 — so a degraded retry of the same stage is not re-faulted).
    Each point draws from its own RNG stream derived from [seed]. *)

val enabled : t -> bool

val fire : t -> string -> bool
(** [fire t point]: should the fault at [point] trigger now? Counts the
    query and the firing against [limit]. *)

val fired : t -> (string * int) list
(** Points that fired so far, with counts, sorted by name. *)

val parse_points : string -> string list
(** Split a comma-separated CLI argument into point names. *)

val worker_kill_point : task:string -> attempt:int -> string
(** Name of the sweep executor's worker-kill fault point for one spawn:
    ["exec.worker.kill:<task>#<attempt>"]. A forked worker queries it
    right after applying its resource limits and, if it fires, kills its
    own process group with SIGKILL — the supervised analogue of a solver
    segfault. The attempt number is part of the name because every worker
    inherits a {e fresh copy} of the parent's chaos state across [fork],
    so per-point fire limits cannot tell attempts apart. *)
