(** Timed solver runs with the paper's abort criteria (Section IV): a
    wall-clock timeout and a memory cap, the latter emulated by an AIG node
    budget. *)

type outcome =
  | Solved of bool * float  (** verdict, seconds *)
  | Timeout of float  (** seconds burned before the deadline fired *)
  | Memout of float
  | Crash of float
      (** the solve died without a classified result: a [Stack_overflow]
          in-process, or — under the supervised executor ({!Sweep}) — a
          worker that exhausted its retry budget (segfault, chaos kill,
          torn result frame) *)

type soundness =
  | Consistent
  | Disagreement of { hqs_sat : bool; idq_sat : bool }
      (** both solvers finished with opposite verdicts — a soundness
          alarm, recorded instead of crashing the sweep so one bad
          instance cannot take down a whole benchmark run *)

type result = {
  id : string;
  family : string;
  sat_expected : bool option;  (** ground truth when known *)
  hqs : outcome;
  idq : outcome;
  hqs_config : Hqs.config;
      (** the configuration the HQS task ran under — the source of the
          configuration-echo cells of {!Report.csv} *)
  hqs_stats : Hqs.stats option;
      (** the call's metric delta and degradation labels, [None] when the
          run did not finish and left nothing to salvage — the source of
          the per-solve columns of {!Report.csv} *)
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
  timeout:float ->
  node_limit:int ->
  Dqbf.Pcnf.t ->
  outcome * Hqs.stats option
(** Outcome plus the solve statistics (including degradation labels, see
    {!Hqs.stats.degraded}); [None] when the run did not finish. *)

val run_hqs_certified :
  ?config:Hqs.config ->
  timeout:float ->
  node_limit:int ->
  dir:string ->
  id:string ->
  Dqbf.Pcnf.t ->
  outcome * Hqs.stats option * string option
(** Like {!run_hqs} through {!Hqs.solve_pcnf_certified}: on a finished
    solve, writes [<dir>/<id>.dqdimacs] (the exact fingerprinted instance
    bytes) and [<dir>/<id>.cert] and returns the certificate path, so
    [certcheck] can audit the pair with no other sweep state. A run that
    times or bails out leaves no artifact ([None]). *)

val run_idq : timeout:float -> node_limit:int -> Dqbf.Pcnf.t -> outcome
