(** Process-isolated benchmark sweeps over {!Exec.Pool}.

    Every [(instance, solver)] pair becomes one pool task —
    ["<instance>/hqs"] and ["<instance>/idq"] — executed in a forked
    worker. The worker runs the ordinary in-process {!Runner} entry
    point, whose wall, heap and node budgets classify TO/MO cleanly, and
    ships the outcome, {!Hqs.stats} and {!Obs.Metrics} deltas back over
    the IPC pipe. The parent maps each finished task to its {!row},
    reassembles per-instance {!Runner.result}s, cross-checks HQS against
    iDQ for soundness, and absorbs the child metric deltas into its own
    registry.

    A worker death the frame cannot explain (an exception such as
    [Stack_overflow], a segfault, a chaos kill, a torn frame) is retried
    at once and, after [exec.max_attempts] attempts, surfaces as
    {!Runner.Crash} — the sweep always terminates with one result per
    instance. With [?journal]/[?resume], an interrupted sweep can be
    rerun and will fork workers only for the tasks that have no
    usable journal line.

    The journal ({!Exec.Journal}, one checksummed line per finished
    task) holds the rows themselves: the line of task ["<inst>/hqs"]
    carries [{"value": {"outcome": {"o": "SAT"|"UNSAT"|"TO"|"MO"|"CRASH",
    "t": seconds}, "stats": {"metrics": {...}}, "cert": path},
    "attempts": n, "pid": p}], [stats] and [cert] only when present.
    This module is the one encoder and decoder of that shape. *)

type config = {
  timeout : float;  (** per-solve wall budget (in-process, as before) *)
  node_limit : int;  (** per-solve AIG node budget *)
  hqs_config : Hqs.config;
      (** the solver configuration of every HQS task; its [node_limit] is
          overridden by [node_limit] *)
  mem_limit_mb : int option;
      (** per-solve heap ceiling in MB ({!Hqs_util.Budget.with_mem_limit_mb});
          exceeding it is an in-process MO whose row carries its stats.
          A worker's heap starts with what it inherited from the sweep
          parent: the parsed inputs count against it *)
  exec : Exec.Pool.config;  (** jobs, retries, chaos *)
  certify_dir : string option;
      (** when set, each HQS worker certifies its solve ({!Runner.run_hqs}
          [?cert_dir]) and drops
          [<dir>/<id>.dqdimacs] + [<dir>/<id>.cert] there; the artifact
          path rides the result frame into {!Runner.result.cert_path},
          the journal and the CSV [cert] column *)
}

val default_config : timeout:float -> node_limit:int -> config
(** In-process budgets as given, no heap ceiling, {!Hqs.default_config};
    pool at {!Exec.Pool.default_config} (1 job, 3 attempts). *)

type progress = {
  task : string;  (** ["<instance>/hqs"] or ["<instance>/idq"] *)
  outcome : Runner.outcome;
  attempts : int;
  from_journal : bool;
}

type sweep_report = {
  results : Runner.result list;  (** one per instance, in input order *)
  executed : int;  (** workers actually forked *)
  journaled : int;  (** tasks replayed from the resume journal *)
  journal_dropped : int;  (** torn, corrupt or undecodable journal lines skipped *)
}

type item = { id : string; family : string; pcnf : Dqbf.Pcnf.t }
(** One sweep subject — an instance id, its reporting family and the
    formula. {!item_of_instance} adapts a generated PEC instance; the CLI
    builds items straight from parsed DQDIMACS files. *)

val item_of_instance : Circuit.Families.instance -> item

type solver = Hqs_run | Idq_run

val task_id : item -> solver -> string
(** ["<instance-id>/hqs"] or ["<instance-id>/idq"] — the supervised task
    (and journal) key. *)

val run :
  ?config:config ->
  ?journal:string ->
  ?resume:string ->
  ?on_progress:(progress -> unit) ->
  item list ->
  sweep_report
(** Sweep over the instances, each task in a forked {!Exec.Pool} worker
    under [config.exec]. Each task's wall backstop is
    [2 * config.timeout + 10] seconds, past which the pool kills the
    worker and the row is a timeout.

    [?journal] appends each task's row to a crash-safe JSONL file as it
    finishes. [?resume] pre-loads rows from such a file: a task with a
    checksum-valid line that decodes to a row is reported [from_journal]
    and never forked; a line that fails its checksum or decodes to no row
    counts in [journal_dropped], and its task runs again. The same path
    may be given for both, so repeated invocations converge on a
    fully-journaled sweep that forks nothing. [?on_progress] observes
    every task as it lands, journaled ones first.

    The [attempts]/[worker_pid] of each {!Runner.result} come from the
    instance's HQS task, its [hqs_config] from [config.hqs_config].

    @raise Invalid_argument on two items with the same id. *)

(**/**)

val outcome_to_json : Runner.outcome -> Obs.Json.t
val outcome_of_json : Obs.Json.t -> Runner.outcome option
val stats_to_json : Hqs.stats -> Obs.Json.t
val stats_of_json : Obs.Json.t -> Hqs.stats option
(** Wire codecs, exposed for tests. *)

type row = {
  outcome : Runner.outcome;
  stats : Hqs.stats option;
  cert : string option;
  attempts : int;  (** worker processes spawned for the task *)
  worker_pid : int;  (** pid of the final attempt *)
}
(** One task's half of a {!Runner.result}, and its journal line. *)

val row_of_result : Exec.Pool.result -> row
(** A {!Exec.Pool.Value} frame gives the worker's own outcome, stats and
    certificate path; a {!Exec.Pool.Timeout} or {!Exec.Pool.Memout} gives
    the pool's time and stats from the salvaged samples; a
    {!Exec.Pool.Crash} gives a crash row with no stats. *)

val row_to_json : row -> Obs.Json.t
val row_of_json : Obs.Json.t -> row option
(** The journal codec; [None] if the line has no row's shape. *)

val assemble : config -> item -> hqs:row -> idq:row -> Runner.result
(** The one place a {!Runner.result} is built: from the instance's two
    task rows. *)

(**/**)
