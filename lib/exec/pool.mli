(** The one forked worker pool: every sweep task and every serve job runs
    here, one freshly forked child per attempt.

    A child starts in its own session/process group, runs the caller's
    task body and ships the result back over a pipe as length-prefixed
    JSON frames ({!Ipc}): any number of throttled ["partial"] state
    flushes (latest metric delta plus span buffer, written at span exits)
    followed by one final result frame.
    The parent uses the newest partial only when the final frame never
    arrives (the attempt was killed), salvaging the metrics and trace of
    a timed-out child. Because each attempt is a fresh process, the
    number of forks is the number of attempts, and no state carries from
    one task to the next. The pool sets no kernel limits: the task body's
    own {!Hqs_util.Budget} decides a timeout or memout, and the parent's
    wall-clock kill is the one backstop for a child that wedges.

    When tracing is enabled in the parent, every attempt is stitched into
    one multi-process trace: the parent emits a [sup.task] span per
    attempt on a per-task thread row carrying [trace_id]/[span_id] args,
    the child opens a [sup.child] root span carrying the matching
    [parent_span] link, and child span buffers are merged under their
    own pid rows via {!Obs.Trace.inject} (mid-span deaths are repaired
    and flagged [truncated]).

    The pool never blocks on its own: {!submit} only queues, and {!wait}
    is one step of a select loop — it forks queued tasks into free slots,
    waits on the children's pipes {e and} on caller-supplied descriptors,
    classifies finished attempts, reaps children, enforces wall deadlines, and
    returns what happened plus the caller's ready descriptors. The sweep
    supervisor and the serve daemon are both loops around {!wait}.

    Crash taxonomy (how an attempt maps to a {!status}). A complete
    final frame settles the attempt when it arrives — the child only
    [_exit]s 0 after writing it — and the child is reaped afterwards:
    - ["ok"] frame — {!Value} (child metric deltas are
      {!Obs.Metrics.absorb}ed into the parent registry)
    - ["memout"] frame — {!Memout} (the task body raised
      [Out_of_memory]: the runtime's allocator failed, e.g. under a
      shell's [ulimit -v])
    - wall-deadline SIGKILL of the process group — {!Timeout}
    - anything else — ["error"] frame (task exception, incl.
      [Stack_overflow]), nonzero exit (incl. an exception raised in the
      child before the task body, e.g. by [?at_fork]), fatal signal, or
      exit without a final frame (torn or missing) — is a crash
      {e attempt}:
      reported as {!Crashed}, retried after backoff ahead of every task
      not yet started, and {!Crash} once [max_attempts] are exhausted. *)

type status =
  | Value of Obs.Json.t  (** the task body returned this payload *)
  | Timeout of float  (** wall deadline hit after [s] seconds *)
  | Memout of float  (** the body raised [Out_of_memory] after [s] seconds *)
  | Crash of float  (** quarantined after exhausting retries *)

type result = {
  status : status;
  attempts : int;  (** attempts consumed, including [?spent] ones *)
  worker_pid : int;  (** pid of the final attempt *)
  elapsed_s : float;  (** wall time of the final attempt *)
  crash_log : string list;  (** one line per failed attempt, oldest first *)
  salvaged_metrics : Obs.Metrics.sample list;
      (** on {!Timeout}/{!Memout}: the child's last registry delta, from
          its final frame or its newest partial frame. [[]] otherwise. *)
}

type config = {
  jobs : int;  (** concurrent children, >= 1 *)
  wall_s : float option;
      (** the default deadline of a task, counted from each fork; the
          parent SIGKILLs the child's process group past it *)
  max_attempts : int;  (** attempts before quarantine, >= 1 *)
  backoff : Backoff.policy;  (** retry delay schedule *)
  chaos : Hqs_util.Chaos.t;
      (** queried in each child at {!Hqs_util.Chaos.worker_kill_point}; a
          fired point SIGKILLs the child before its task body runs *)
}

val default_config : config
(** 1 job, no deadline, 3 attempts, {!Backoff.default}, chaos off. *)

type 'k event =
  | Crashed of 'k * int * string
      (** attempt [n] of the task died with this description; a retry
          follows, or {!Finished} with {!Crash} after the last attempt *)
  | Finished of 'k * result  (** the task's final outcome *)

type 'k t
(** A pool whose tasks are identified by caller keys of type ['k]. *)

val create : ?at_fork:(unit -> unit) -> config -> 'k t
(** An empty pool. [?at_fork] runs first thing in every child, before
    anything else — the place to close descriptors the caller owns
    (listen sockets, client connections) so the child holds none of
    them. The pool itself closes its other children's pipes there.
    Sets [SIGPIPE] to ignore ({!Ipc.ignore_sigpipe}).
    @raise Invalid_argument on [jobs < 1] or [max_attempts < 1]. *)

val submit :
  'k t -> ?wall_s:float -> ?spent:int -> id:string -> 'k -> (attempt:int -> Obs.Json.t) -> unit
(** [submit t ~id key body] queues a task; [body ~attempt] runs in the
    child (attempts count from 1) and returns its result as JSON, or
    raises — [Out_of_memory] becomes {!Memout}, anything else a crash
    attempt. [id] names the task in chaos points and trace rows.
    [?wall_s] overrides [config.wall_s] as this task's deadline,
    counted from each fork. [?spent] (default 0) is the number of
    attempts the task already used elsewhere: the first fork is attempt
    [spent + 1], [max_attempts] counts them, and the task queues ahead
    of fresh ones, like a crash retry. *)

val wait :
  'k t ->
  ?read:Unix.file_descr list ->
  ?write:Unix.file_descr list ->
  float ->
  'k event list * Unix.file_descr list * Unix.file_descr list
(** [wait t ~read ~write timeout] forks queued tasks into free slots
    (retries first), then selects over the children's pipes and the
    caller's [read]/[write] descriptors for at most [timeout] seconds
    (less when a deadline or backoff gate comes first). It returns the
    events of children that finished meanwhile, in order, and the
    caller's ready readable and writable descriptors. *)

val running : 'k t -> int
(** Children alive now. *)

val queued : 'k t -> int
(** Tasks submitted but not running: waiting for a slot or in backoff. *)

val idle : 'k t -> bool
(** Nothing queued and nothing running. *)

val spawned : 'k t -> int
(** Children forked so far. *)

val samples_to_json : Obs.Metrics.sample list -> Obs.Json.t
val samples_of_json : Obs.Json.t -> Obs.Metrics.sample list
(** The metric-delta codec of the result frames (malformed items are
    dropped), shared with the supervisor's journal. *)
