(** HQS — the paper's solver (Fig. 3): decide a DQBF by eliminating a
    minimum set of universal variables (chosen by partial MaxSAT over the
    dependency graph) until the prefix is linearly orderable, then
    eliminate the rest of the linear prefix, innermost block first.

    The main loop interleaves, as in the paper:
    - unit/pure detection on the AIG (Theorems 5-6),
    - elimination of one existential depending on all universals
      (Theorem 2, {!Dqbf.Elim.theorem2}): the cheapest, with the
      quantifier localized,
    - else elimination of the next queued universal variable (Theorem 1),
      cheapest first (fewest existential copies),
    - compaction when the graph grows.

    Once the dependency graph is acyclic, the same loop takes the role of
    the paper's QBF back end: each round quantifies the cheapest variable
    of the innermost block ({!Dqbf.Elim.innermost}, a Theorem-2 step
    while there is one), and one SAT call decides once a single
    quantifier kind is left.

    Unlike the paper, nothing converts the AIG to a FRAIG: no measured
    instance gained from the sweeps (DESIGN.md).

    Every stage runs once, under the solve's own budget. A node-limit
    blowup anywhere escapes as [Out_of_memory_budget], the paper's
    memout: the solve is deterministic, so a retry would run into the
    same limit (DESIGN.md §6). The [hqs.peak_nodes] gauge then reads the
    limit. *)

type verdict = Sat | Unsat

type mode =
  | Elimination  (** the paper's strategy: make the prefix QBF-expressible *)
  | Expand_all
      (** the ICCD'13 baseline ([10]): eliminate every universal variable
          and finish with a SAT call *)

type config = {
  preprocess : Dqbf.Preprocess.config;
  mode : mode;
  use_unitpure : bool;
  use_thm2 : bool;
      (** take Theorem-2 steps before linearization; the acyclic phase
          takes them regardless *)
  use_maxsat : bool;  (** false: eliminate all difference variables (greedy) *)
  node_limit : int option;  (** memout emulation *)
  check_level : Check.level;
      (** soundness-auditor depth at every stage boundary (see {!Check}):
          [Off] is free, [Cheap] scans the prefix, [Full] deep-audits the
          AIG manager and certifies Skolem models with an independent SAT
          call. [Off] in {!default_config}. Violations escape the solve
          as {!Check.Violation}. *)
  dep_scheme : Analysis.Scheme.t;
      (** static dependency scheme applied to the prefixed CNF before
          preprocessing (see {!Analysis.Rp}): [Trivial] (the default)
          keeps the prefix as written; [Rp] prunes spurious dependency
          edges via resolution paths, which can shrink the MaxSAT
          elimination sets or prove the prefix already linearly
          orderable; only [Rp] runs the analyzer. Only the PCNF entry
          points ({!solve_pcnf}, {!run}) apply the scheme; the
          [solve_formula] entry points take the prefix as given. *)
}

val default_config : config
(** A constant: the library reads no environment variable. The CLI
    applies its [--check], [--dep-scheme] and [--inproc] flags to the
    fields it starts from. *)

val escalated_config : config -> config
(** The re-solve after a certificate failed its own audit: checks at
    [Full]. *)

type stats = {
  metrics : (string * float) list;
      (** the {!Obs.Metrics} delta over the whole public call, sorted by
          name: counters and histogram series as flows, gauges as levels.
          The per-solve gauges ([hqs.peak_nodes], [hqs.maxsat_set],
          [hqs.*_time_s]) start every call from zero, so two solves in
          one process never leak into each other. *)
}

val solve_formula :
  ?config:config -> ?budget:Hqs_util.Budget.t -> Dqbf.Formula.t -> verdict * stats
(** Decides the DQBF. The input formula is copied, not mutated.
    @raise Hqs_util.Budget.Timeout on deadline.
    @raise Hqs_util.Budget.Out_of_memory_budget when the node limit is hit. *)

val solve_pcnf :
  ?config:config -> ?budget:Hqs_util.Budget.t -> Dqbf.Pcnf.t -> verdict * stats
(** Full pipeline from a prefixed CNF, including CNF preprocessing. *)

type outcome =
  | Verdict of verdict
  | Timeout  (** the budget's deadline fired *)
  | Memout
      (** the node limit, the budget's heap ceiling, or the OCaml heap
          itself ran out — the paper's MO *)

type run = {
  outcome : outcome;
  elapsed_s : float;  (** wall time of the whole call *)
  stats : stats;  (** the call's metric delta, on every outcome *)
  model : Dqbf.Skolem.t option;
      (** on [Verdict Sat] when [~model:true] or [~certify] was given: the
          Skolem functions (Definition 2) of the declared existentials, with the
          preprocessing steps folded in; checkable with
          {!Dqbf.Skolem.verify} against the original formula *)
  cert : Cert.t option;  (** the audited certificate when [~certify] was given *)
}

val run :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  ?model:bool ->
  ?certify:string ->
  Dqbf.Pcnf.t ->
  run
(** The one solve entry point of the CLI, the sweep worker and the serve job:
    the {!solve_pcnf} pipeline, classified into the paper's outcomes.
    [Budget.Timeout] is [Timeout]; [Budget.Out_of_memory_budget] and
    [Stdlib.Out_of_memory] are [Memout]. The stats are taken on every
    outcome, so a timeout or memout shows where its time and nodes went.

    [~certify:instance_text] also materializes an externally checkable
    certificate ({!Cert}): a Skolem-AIG artifact on [Sat], a
    universal-expansion refutation (or an explicit [Uncertified] marker
    past the expansion cap) on [Unsat]. [instance_text] must be the exact
    bytes [pcnf] was parsed from — the artifact embeds their
    fingerprint. The artifact is audited in-process at the configured
    {!Check.level} before it is returned.

    {!Check.Violation} is not caught: each caller keeps its own recovery
    (a failed [Post_certify] audit is treated like a crash — re-solve
    escalated, evict caches, quarantine). *)

val metric : stats -> string -> float
(** The named metric of the call, [0.] when the call never touched it. *)

(** How a declared statistic is read off a finished call. *)
type stat =
  | Count of string  (** an integer-valued metric of {!stats.metrics} *)
  | Seconds of string  (** a seconds gauge, printed with three decimals *)
  | Dep_scheme  (** echo of [config.dep_scheme] *)
  | Inproc_mode  (** echo of the preprocessing [inproc] mode *)
  | Cert_status
      (** ["SAT"]/["UNSAT"] (the verdict) when the call emitted a
          certificate, ["UNCERTIFIED"] when it emitted the marker, ["-"]
          when no artifact was requested — read off the [cert.emitted]
          and [cert.uncertified] deltas *)

val stat_columns : (string * stat) list
(** Every per-solve statistic, declared once as (CSV column, source) in
    CSV column order. The harness CSV and {!pp_stats} both iterate this
    list: a new metric needs its declaration plus one entry here. *)

val stat_cell : config:config -> verdict:verdict option -> stats -> stat -> string
(** Render one statistic of a call run under [config]; [verdict] is
    [None] for a call that did not finish (a salvaged timeout row). *)

val pp_stats : config:config -> verdict:verdict option -> Format.formatter -> stats -> unit
(** One [key=value] pair per {!stat_columns} entry (the column without
    its [hqs_] prefix, underscores as dashes: [maxsat-set=2]),
    space-separated; [verdict] as in {!stat_cell}. *)
