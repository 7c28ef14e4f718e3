(** Supervised sweeps: a batch of tasks run to completion on one
    {!Pool}, plus the crash-safe journal that lets an interrupted sweep
    resume.

    Every task runs in its own forked child under the pool's wall-clock
    deadline, with its crash taxonomy, throttled partial frames and salvage,
    per-task backoff retry and quarantine, and [sup.task]/[sup.child]
    trace stitching (see {!Pool}). This module adds the batch view: tasks
    are given up front, completions come back in input order, and with
    [?journal] every completion is appended to a crash-safe JSONL file
    ({!Journal}) so a sweep killed midway can be [?resume]d without
    re-running finished tasks. *)

type status = Pool.status =
  | Value of Obs.Json.t  (** worker returned this payload *)
  | Timeout of float  (** wall deadline hit after [s] seconds *)
  | Memout of float  (** the body raised [Out_of_memory] after [s] seconds *)
  | Crash of float  (** quarantined after exhausting retries *)

type completion = {
  task_id : string;
  status : status;
  attempts : int;  (** worker processes spawned for this task *)
  worker_pid : int;  (** pid of the final attempt (0 if journaled pre-fork) *)
  elapsed_s : float;  (** wall time of the final attempt *)
  crash_log : string list;  (** one line per failed attempt, oldest first *)
  from_journal : bool;  (** true: replayed from [?resume], not executed *)
  salvaged_metrics : Obs.Metrics.sample list;
      (** on {!Timeout}/{!Memout}: the worker's last registry delta,
          recovered from its final result frame or from the newest
          throttled partial frame it flushed before being killed —
          exactly the data that explains where the budget went. [[]] for
          clean completions. *)
}

type config = Pool.config = {
  jobs : int;  (** concurrent workers, >= 1 *)
  wall_s : float option;  (** per-attempt deadline; the parent kills past it *)
  max_attempts : int;  (** spawns before quarantine, >= 1 *)
  backoff : Backoff.policy;  (** retry delay schedule *)
  chaos : Hqs_util.Chaos.t;  (** fault plan forwarded into children *)
}

val default_config : config
(** 1 job, no deadline, 3 attempts, {!Backoff.default}, chaos off. *)

type report = {
  completions : completion list;  (** one per task, in input order *)
  executed : int;  (** worker processes actually spawned *)
  journaled : int;  (** tasks satisfied from the resume journal *)
  journal_dropped : int;  (** torn/corrupt resume lines skipped *)
}

val run :
  ?config:config ->
  ?journal:string ->
  ?resume:string ->
  ?on_complete:(completion -> unit) ->
  worker:('a -> Obs.Json.t) ->
  (string * 'a) list ->
  report
(** [run ~worker tasks] executes every [(id, payload)] task in a forked
    child and returns all completions in input order.

    [?journal] appends each completion to a crash-safe JSONL file as it
    finishes. [?resume] pre-loads completions from such a file: tasks
    with a checksum-valid line are reported [from_journal] and never
    forked (they still reach [?on_complete]). The same path may be given
    for both, so repeated [--resume J --journal J] sweeps converge.
    [?on_complete] observes completions as they land, in completion
    order, for progress output.

    The worker callback runs in the {e child} process; it must return its
    result as JSON (or raise — [Out_of_memory] becomes {!Memout},
    anything else a crash attempt). The parent never runs worker code.

    @raise Invalid_argument on duplicate task ids or a nonsensical
    config. *)

val completion_to_json : completion -> Obs.Json.t
(** The journal payload for a completion, exposed for tests. *)

val completion_of_json : task_id:string -> Obs.Json.t -> completion option
(** Decode a journal payload; [None] if malformed. The result has
    [from_journal = true]. *)
