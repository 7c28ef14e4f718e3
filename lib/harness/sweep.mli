(** Process-isolated benchmark sweeps over {!Exec.Supervisor}.

    Every [(instance, solver)] pair becomes one supervised task —
    ["<instance>/hqs"] and ["<instance>/idq"] — executed in a forked
    worker under kernel resource limits. The worker runs the ordinary
    in-process {!Runner} entry point (so the paper's wall/node budgets
    still classify TO/MO cleanly) and ships the outcome, {!Hqs.stats} and
    {!Obs.Metrics} deltas back over the IPC pipe; the parent reassembles
    per-instance {!Runner.result}s, cross-checks HQS against iDQ for
    soundness, and absorbs the child metric deltas into its own registry.

    A worker death the frame cannot explain (segfault, chaos kill, torn
    frame) is retried with backoff and eventually surfaces as
    {!Runner.Crash} — the sweep always terminates with one result per
    instance. With [?journal]/[?resume], an interrupted sweep can be
    rerun and will fork workers only for the tasks that have no
    checksum-valid journal line. *)

type config = {
  timeout : float;  (** per-solve wall budget (in-process, as before) *)
  node_limit : int;  (** per-solve AIG node budget *)
  hqs_config : Hqs.config option;
  exec : Exec.Supervisor.config;  (** jobs, kernel limits, retries, chaos *)
  certify_dir : string option;
      (** when set, each HQS worker solves through
          {!Hqs.solve_pcnf_certified} and drops
          [<dir>/<id>.dqdimacs] + [<dir>/<id>.cert] there; the artifact
          path rides the result frame into {!Runner.result.cert_path},
          the journal and the CSV [cert] column *)
}

val default_config : timeout:float -> node_limit:int -> config
(** In-process budgets as given; executor at {!Exec.Supervisor.default_config}
    (1 job, no kernel limits, 3 attempts). *)

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
  journal_dropped : int;  (** torn/corrupt journal lines skipped *)
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
(** Supervised sweep over the instances. [?journal], [?resume] and the
    retry/chaos machinery behave as in {!Exec.Supervisor.run}; the same
    path may be passed to both so repeated invocations converge on a
    fully-journaled sweep that forks nothing.

    The [attempts]/[worker_pid] of each {!Runner.result} come from the
    instance's HQS task, its [hqs_config] from [config.hqs_config]
    ({!Hqs.default_config} when unset, as in the workers). *)

(**/**)

val outcome_to_json : Runner.outcome -> Obs.Json.t
val outcome_of_json : Obs.Json.t -> Runner.outcome option
val stats_to_json : Hqs.stats -> Obs.Json.t
val stats_of_json : Obs.Json.t -> Hqs.stats option
(** Wire codecs, exposed for tests. *)

val assemble :
  config ->
  item ->
  hqs:Exec.Supervisor.completion ->
  idq:Exec.Supervisor.completion ->
  Runner.result
(** The one place a {!Runner.result} is built: from the instance's two
    task completions (a salvaged TO/MO completion yields stats from its
    salvaged samples). Exposed for tests. *)

(**/**)
