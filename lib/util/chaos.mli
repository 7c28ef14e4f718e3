(** Fault injection by named points.

    Fallible steps of the multi-process layers are wired with named
    injection points: the worker kill of the forked pool
    (["exec.worker.kill:<task>#<attempt>"], shared by the sweep and the
    serve daemon) and the daemon's certificate poisoning
    (["serve.cert.poison:<jid>#<attempt>"]). A chaos plan is the set of
    armed point names; when an armed point is queried, the caller
    behaves as if the step had failed (the worker dies, the artifact is
    corrupt), so every crash-recovery path is exercisable from ordinary
    unit tests without a genuinely crashing solver.

    Every point is queried once, in a freshly forked child, and its name
    carries the attempt number, so an armed point fires on exactly the
    attempt it names. *)

type t

val off : t
(** Arms nothing; the production default. *)

val arm : string list -> t
(** A plan arming exactly these point names. *)

val fire : t -> string -> bool
(** [fire t point]: is [point] armed in [t]? *)

val worker_kill_point : task:string -> attempt:int -> string
(** Name of the pool's worker-kill fault point for one fork:
    ["exec.worker.kill:<task>#<attempt>"]. A forked worker queries it
    before its task body runs and, if it fires, kills its
    own process group with SIGKILL — the supervised analogue of a solver
    segfault. *)
