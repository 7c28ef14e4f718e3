(** CNF-level preprocessing (Section III-C of the paper), applied before
    the AIG is built. One path for every mode:

    - the {!Inproc} engine runs the CNF rules to a fixpoint: unit
      propagation (universal unit literals refute the formula),
      generalized universal reduction, equivalent-variable substitution
      adapted to DQBF (merged existentials keep the intersection of their
      dependency sets) and (self-)subsumption, plus failed-literal probing
      and bounded variable elimination in [Full] mode; its step witnesses
      are replayed into the model trail;
    - Tseitin gate detection for AND/OR/XOR gates with arbitrarily negated
      inputs then removes the detected definitions from the clause set,
      and they are substituted structurally into the AIG
      (dependency-legal gates only) as the {!Formula.t} is assembled. *)

type stats = { gates : int  (** gate definitions substituted *) }

type config = {
  gate_detection : bool;
  inproc : Inproc.mode;
      (** The engine's rule set. [Off] loads the clauses into the engine
          and returns them with no rule applied, so only gate detection
          and the AIG build act on them. *)
}

val default_config : config
(** [inproc] defaults to {!Inproc.default_mode} ([On]); callers that
    resolve [HQS_INPROC] / [--inproc] override the field. *)

val off : config
(** No CNF rule and no gate detection: the clauses go into the AIG
    unsimplified. *)

type outcome =
  | Unsat  (** refuted during preprocessing *)
  | Formula of Formula.t * stats

val run :
  ?config:config ->
  ?node_limit:int ->
  ?trail:Model_trail.t ->
  ?on_inproc:(Inproc.outcome -> unit) ->
  Pcnf.t ->
  outcome
(** [on_inproc] fires exactly once in every mode, after trail replay,
    with the raw engine outcome ([Off] gives [Simplified] with no steps
    and zero rounds) — the hook the solver uses to audit the run
    ({!Check.audit_inproc} lives above this library). Exceptions raised
    by the callback propagate. *)

val run_inproc :
  ?mode:Inproc.mode -> Pcnf.t -> [ `Unsat | `Done of Pcnf.t * Inproc.result ]
(** Run only the inprocessing engine on a prefixed CNF and convert the
    result back to a {!Pcnf.t} (same [num_vars]; simplified clauses,
    possibly narrowed prefix). Used by [hqs analyze] reports, the bench
    reduction tables and tests; no model trail is threaded. *)
