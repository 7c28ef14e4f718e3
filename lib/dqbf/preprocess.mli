(** CNF-level preprocessing (Section III-C of the paper), applied before
    the AIG is built: a thin PCNF -> engine -> AIG builder. One path for
    every mode:

    - the {!Inproc} engine runs the CNF rules to a fixpoint: unit
      propagation (universal unit literals refute the formula),
      generalized universal reduction, equivalent-variable substitution
      adapted to DQBF (merged existentials keep the intersection of their
      dependency sets) and (self-)subsumption; then, with
      [gate_detection], it detects Henkin-legal Tseitin AND/OR/XOR gates
      (arbitrarily negated inputs) on its occurrence lists and takes
      their defining clauses out of the clause set. Its step witnesses
      are replayed into the model trail;
    - the matrix conjoins the surviving clauses in the engine's arena
      order, and each gate's function is substituted structurally for its
      output as the {!Formula.t} is assembled. *)

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
    resolve [--inproc] override the field. *)

val off : config
(** No CNF rule and no gate detection: the clauses go into the AIG
    unsimplified. *)

type outcome =
  | Unsat  (** refuted during preprocessing *)
  | Formula of Formula.t * stats

val run :
  ?config:config ->
  ?budget:Hqs_util.Budget.t ->
  ?node_limit:int ->
  ?trail:Model_trail.t ->
  ?on_inproc:(Inproc.outcome -> unit) ->
  Pcnf.t ->
  outcome
(** [on_inproc] fires exactly once in every mode, after gate detection
    and trail replay, with the raw engine outcome ([Off] gives
    [Simplified] with no steps and zero rounds) — the hook the solver uses to audit the run
    ({!Check.audit_inproc} lives above this library). Exceptions raised
    by the callback propagate. [budget] (default unlimited) is checked
    by the engine at the top of each fixpoint round and before gate
    detection, and here once more before the AIG build; its exhaustion
    raises out of [run]. *)

val run_inproc : ?mode:Inproc.mode -> Pcnf.t -> Inproc.outcome
(** Run only the inprocessing engine on a prefixed CNF: no gate
    detection, no model trail. Used by [hqs analyze] reports and tests. *)
