(** Occurrence-indexed CNF inprocessing engine, DQBF-aware.

    A fixpoint simplification pass over a prefixed CNF, run between
    parsing and AIG construction. The machinery follows the classic SAT
    inprocessing playbook — clause arena with per-literal occurrence
    lists, a binary implication graph (BIG) whose Tarjan SCCs drive
    equivalence substitution, signature-based subsumption and
    self-subsumption strengthening, failed-literal probing on BIG roots,
    and bounded variable elimination — each rule adapted to Henkin
    (DQBF) semantics:

    - a unit over a universal variable refutes the formula;
    - merging two equivalent existentials intersects their dependency
      sets; two universals forced equal, or an existential forced equal
      to a universal outside its dependency set, refute;
    - bounded variable elimination of an existential [y] is only
      performed when it is {e Henkin-legal}: every other variable in a
      clause containing [y] must be dependency-below [y] (universal [v]:
      [v] in [D_y]; existential [v]: [D_v] subset of [D_y]), so the
      reconstruction function for [y] — and every resolvent — never
      widens a dependency requirement.

    The engine operates on raw clause data ({!Sat.Lit}-encoded literals,
    variables as integers, dependency sets as {!Hqs_util.Bitset.t}) so
    it sits below [lib/dqbf]; [Dqbf.Preprocess] converts from and back
    to [Pcnf.t] and replays the returned {!step} witnesses into the
    Skolem model trail. Every deletion, strengthening, merge and
    elimination is reported as a step so [Check.audit_inproc] can
    validate the run structurally (and semantically at [--check full]). *)

type mode = Off | On | Full
(** [Off]: no rule; {!run} loads the clauses and returns them unchanged
    (zero rounds, no steps). [On] (default): unit propagation, universal
    reduction, BIG/SCC equivalence substitution, subsumption and
    self-subsumption. [Full]: additionally failed-literal probing on BIG
    roots and Henkin-legal bounded variable elimination. *)

val mode_name : mode -> string

val mode_of_string : string -> mode option
(** Accepts "off"/"0", "on"/"1", "full"/"2" (case-insensitive). *)

val mode_of_env : unit -> (mode, string) result
(** Reads [HQS_INPROC]; unset or empty means the default mode [On]. *)

val default_mode : mode

type config = {
  unit_propagation : bool;
  universal_reduction : bool;
  equivalences : bool;  (** BIG + Tarjan SCC substitution *)
  subsumption : bool;
  self_subsumption : bool;
  probe : bool;  (** failed-literal probing on BIG roots *)
  bve : bool;  (** Henkin-legal bounded variable elimination *)
  max_rounds : int;
  bve_cap : int;  (** skip eliminations with more than this many resolvent pairs *)
}

val config_of_mode : mode -> config

type problem = {
  num_vars : int;
  univs : Hqs_util.Bitset.t;
  deps : (int * Hqs_util.Bitset.t) list;  (** existential -> dependency set *)
  clauses : int list list;  (** {!Sat.Lit}-encoded *)
}

(** Auditable witness of one rule application, in chronological order.
    All literals are {!Sat.Lit}-encoded; clause fields are snapshots of
    the clause at the time the rule fired. *)
type step =
  | Unit of int  (** literal propagated to true (existential variable) *)
  | Reduced of { clause : int list; dropped : int list }
      (** universal reduction removed [dropped] from [clause] *)
  | Merged of { y : int; rep : int }
      (** equivalence substitution: existential [y] := literal [rep] *)
  | Subsumed of { clause : int list; by : int list }
  | Strengthened of { clause : int list; removed : int; by : int list }
      (** self-subsumption: [removed] deleted from [clause], witnessed by
          the partner clause [by] containing its negation *)
  | Eliminated of {
      y : int;
      dep_y : int list;  (** dependency set of [y] at elimination time *)
      pos : int list list;  (** clauses containing [y] positively *)
      neg : int list list;  (** clauses containing [y] negatively *)
    }
      (** bounded variable elimination by resolution on [y]; the [pos]
          side is the reconstruction basis for the Skolem function of
          [y] *)

type stats = {
  rounds : int;
  units : int;
  reduced_lits : int;
  scc_merges : int;
  subsumed : int;
  strengthened : int;
  failed_lits : int;
  bve_eliminated : int;
  clauses_before : int;
  clauses_after : int;
  lits_before : int;
  lits_after : int;
  vars_before : int;
  vars_after : int;
}

type result = {
  clauses : int list list;  (** simplified clause set, {!Sat.Lit}-encoded *)
  univs : Hqs_util.Bitset.t;
  deps : (int * Hqs_util.Bitset.t) list;
      (** surviving existentials with (possibly intersected) dependency
          sets, sorted by variable *)
  steps : step list;  (** chronological *)
  stats : stats;
}

type outcome = Unsat | Simplified of result

val run : ?config:config -> problem -> outcome
(** Run the fixpoint engine. [Unsat] means a rule refuted the formula
    (empty clause, universal unit, illegal merge, failed universal
    literal). The default config is [config_of_mode On]. *)
