(** Timed solver runs with the paper's abort criteria (Section IV): a
    wall-clock timeout and a memory cap, the latter emulated by an AIG node
    budget and, when given, a heap ceiling. *)

type outcome =
  | Solved of bool * float  (** verdict, seconds *)
  | Timeout of float  (** seconds burned before the deadline fired *)
  | Memout of float
  | Crash of float
      (** the solve's forked worker ({!Sweep}) exhausted its retry
          budget without a classified result: an exception such as
          [Stack_overflow], a segfault, a chaos kill or a torn result
          frame ({!Exec.Pool}'s crash taxonomy) *)

type soundness =
  | Consistent
  | Disagreement of { hqs_sat : bool; idq_sat : bool }
      (** both solvers finished with opposite verdicts — a soundness
          alarm, recorded instead of crashing the sweep so one bad
          instance cannot take down a whole benchmark run *)

type result = {
  id : string;
  family : string;
  hqs : outcome;
  idq : outcome;
  hqs_config : Hqs.config;
      (** the configuration the HQS task ran under — the source of the
          configuration-echo cells of {!Report.csv} *)
  hqs_stats : Hqs.stats option;
      (** the call's metric delta — the source of the per-solve columns
          of {!Report.csv}. An in-process timeout or memout carries its
          own stats; [None] only for a crash, or a wall-killed worker
          that left nothing to salvage *)
  soundness : soundness;
  attempts : int;  (** worker processes spawned for the HQS solve *)
  worker_pid : int option;  (** pid of the (final) HQS worker *)
  cert_path : string option;
      (** path of the certificate artifact when the sweep ran with a
          certify directory and the HQS solve finished, [None] otherwise *)
}

val is_solved : outcome -> bool
val time_of : outcome -> float

val run_hqs :
  ?config:Hqs.config ->
  ?cert_dir:string ->
  ?mem_limit_mb:int ->
  id:string ->
  timeout:float ->
  node_limit:int ->
  Dqbf.Pcnf.t ->
  outcome * Hqs.stats * string option
(** One {!Hqs.run} under [timeout], [node_limit] and the heap ceiling
    [?mem_limit_mb] (none by default): the outcome, the call's stats and
    the certificate path. It never returns {!Crash}: an exception such
    as [Stack_overflow] propagates, and the {!Exec.Pool} worker that runs
    it classifies it as a crash attempt. With [?cert_dir], a finished
    solve writes [<dir>/<id>.dqdimacs] (the fingerprinted instance bytes) and
    [<dir>/<id>.cert], which [certcheck] audits with no other sweep
    state; a TO or MO leaves no artifact. *)

val run_idq : ?mem_limit_mb:int -> timeout:float -> node_limit:int -> Dqbf.Pcnf.t -> outcome
(** One iDQ solve under the same budgets as {!run_hqs}. It never returns
    {!Crash}: a budget expiry is {!Timeout} or {!Memout}, and any other
    exception propagates to the {!Exec.Pool} worker, which turns a real
    [Out_of_memory] into a memout and anything else into a crash
    attempt. *)
