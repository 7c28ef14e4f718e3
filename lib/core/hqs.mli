(** HQS — the paper's solver (Fig. 3): decide a DQBF by eliminating a
    minimum set of universal variables (chosen by partial MaxSAT over the
    dependency graph) until the prefix is linearly orderable, then hand the
    AIG to the QBF back end.

    The main loop interleaves, exactly as in the paper:
    - unit/pure detection on the AIG (Theorems 5-6),
    - elimination of existentials depending on all universals (Theorem 2),
    - elimination of the next queued universal variable (Theorem 1),
      cheapest first (fewest existential copies),
    - compaction when the graph grows.

    Unlike the paper, nothing converts the AIG to a FRAIG: no measured
    instance gained from the sweeps (DESIGN.md).

    Every stage runs once, under the solve's own budget. A node-limit
    blowup anywhere — the main loop or the elimination QBF back end —
    escapes as [Out_of_memory_budget], the paper's memout: the solve is
    deterministic, so a retry would run into the same limit, and the
    QDPLL search back end that could sidestep it almost never finishes
    inside the remaining budget (DESIGN.md §6). *)

type verdict = Sat | Unsat

type mode =
  | Elimination  (** the paper's strategy: make the prefix QBF-expressible *)
  | Expand_all
      (** the ICCD'13 baseline ([10]): eliminate every universal variable
          and finish with a SAT call *)

type qbf_backend =
  | Elim_backend  (** AIG elimination, the AIGSOLVE role (default) *)
  | Search_backend  (** clause-level QDPLL search, the DepQBF role *)

type config = {
  preprocess : Dqbf.Preprocess.config;
  mode : mode;
  use_unitpure : bool;
  use_thm2 : bool;  (** eliminate existentials with full dependency sets *)
  use_maxsat : bool;  (** false: eliminate all difference variables (greedy) *)
  node_limit : int option;  (** memout emulation *)
  qbf : Qbf.Solver.config;  (** the elimination QBF back end's settings *)
  qbf_backend : qbf_backend;
  check_level : Check.level;
      (** soundness-auditor depth at every stage boundary (see {!Check}):
          [Off] is free, [Cheap] scans the prefix, [Full] deep-audits the
          AIG manager and certifies Skolem models with an independent SAT
          call. Defaults to the [HQS_CHECK] environment variable ([Off]
          when unset or malformed — the CLI reports malformed values).
          Violations escape the solve as {!Check.Violation}. *)
  dep_scheme : Analysis.Scheme.t;
      (** static dependency scheme applied to the prefixed CNF before
          preprocessing (see {!Analysis.Rp}): [Rp] (the default) prunes
          spurious dependency edges via resolution paths, shrinking the
          MaxSAT elimination sets and sometimes proving the prefix
          already linearly orderable; [Trivial] keeps the prefix as
          written. Defaults to the [HQS_DEP_SCHEME] environment variable
          ([rp] when unset or malformed — the CLI reports malformed
          values). Only [solve_pcnf]/[solve_pcnf_model] run the analyzer;
          the [solve_formula] entry points take the prefix as given. *)
}

val default_config : config

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
    @raise Hqs_util.Budget.Out_of_memory_budget when the node limit is hit,
    in the main loop or the QBF back end. *)

val solve_pcnf :
  ?config:config -> ?budget:Hqs_util.Budget.t -> Dqbf.Pcnf.t -> verdict * stats
(** Full pipeline from a prefixed CNF, including CNF preprocessing. *)

val solve_formula_model :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  Dqbf.Formula.t ->
  verdict * Dqbf.Skolem.t option * stats
(** Like {!solve_formula}, additionally reconstructing Skolem functions
    (Definition 2) on a [Sat] verdict. The model covers exactly the
    formula's existential variables and can be checked independently with
    {!Dqbf.Skolem.verify}. *)

val solve_pcnf_model :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  Dqbf.Pcnf.t ->
  verdict * Dqbf.Skolem.t option * stats
(** Like {!solve_pcnf} with Skolem reconstruction; preprocessing steps
    (units, equivalences, eliminations, gate substitutions) are folded into the model. *)

val solve_pcnf_certified :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  instance_text:string ->
  Dqbf.Pcnf.t ->
  verdict * Cert.t * Dqbf.Skolem.t option * stats
(** Like {!solve_pcnf_model}, additionally materializing an externally
    checkable certificate ({!Cert}): a Skolem-AIG artifact on [Sat], a
    universal-expansion refutation (or an explicit [Uncertified] marker
    past the expansion cap) on [Unsat]. [instance_text] must be the
    exact bytes [pcnf] was parsed from — the artifact embeds their
    fingerprint. The artifact is audited in-process at the configured
    {!Check.level} before being returned; an audit failure raises
    {!Check.Violation} at the [Post_certify] stage, which callers treat
    like a crash (re-solve escalated, evict caches, quarantine). *)

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

val pp_stats : config:config -> verdict:verdict -> Format.formatter -> stats -> unit
(** One [key=value] pair per {!stat_columns} entry (the column without
    its [hqs_] prefix, underscores as dashes: [maxsat-set=2]),
    space-separated. *)
