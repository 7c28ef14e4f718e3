(** Occurrence-indexed CNF inprocessing engine, DQBF-aware.

    A fixpoint simplification pass over a prefixed CNF, run between
    parsing and AIG construction. The machinery follows the classic SAT
    inprocessing playbook — clause arena with per-literal occurrence
    lists, a binary implication graph (BIG) whose Tarjan SCCs drive
    equivalence substitution, and signature-based subsumption and
    self-subsumption strengthening — each rule adapted to Henkin (DQBF)
    semantics:

    - a unit over a universal variable refutes the formula;
    - merging two equivalent existentials intersects their dependency
      sets; two universals forced equal, or an existential forced equal
      to a universal outside its dependency set, refute.

    After the fixpoint, on request, one more pass over the same arena and
    occurrence lists detects Tseitin AND/XOR gate definitions and hands
    them back with their defining clauses (see {!gate}); a gate is kept
    only when it is {e Henkin-legal}: every input is dependency-below
    the output (universal [v]: [v] in [D_y]; existential [v]: [D_v]
    subset of [D_y]). [Dqbf.Preprocess] substitutes them into the AIG.

    The engine operates on raw clause data ({!Sat.Lit}-encoded literals,
    variables as integers, dependency sets as {!Hqs_util.Bitset.t}) so
    it sits below [lib/dqbf]; [Dqbf.Preprocess] converts from and back
    to [Pcnf.t] and replays the returned {!step} witnesses into the
    Skolem model trail. Every deletion, strengthening and merge is
    reported as a step so [Check.audit_inproc] can
    validate the run structurally (and semantically at [--check full]). *)

type mode = Off | On
(** [Off]: no rule; {!run} loads the clauses and returns them unchanged
    (zero rounds, no steps). [On] (default): unit propagation, universal
    reduction, BIG/SCC equivalence substitution, subsumption and
    self-subsumption. *)

val mode_name : mode -> string

val mode_of_string : string -> mode option
(** Accepts "off"/"0", "on"/"1" (case-insensitive). *)

val default_mode : mode

type config = {
  unit_propagation : bool;
  universal_reduction : bool;
  equivalences : bool;  (** BIG + Tarjan SCC substitution *)
  subsumption : bool;
  self_subsumption : bool;
  max_rounds : int;
}
(** One switch per rule. [On] turns all of them on; a config with a
    single rule on checks that rule alone. *)

val config_of_mode : mode -> config

type problem = {
  num_vars : int;
  univs : Hqs_util.Bitset.t;
  deps : (int * Hqs_util.Bitset.t) list;  (** existential -> dependency set *)
  clauses : int list list;  (** {!Sat.Lit}-encoded *)
}

val clause_of_dimacs : int list -> int list
(** A DIMACS clause {!Sat.Lit}-encoded, in ascending order, duplicate
    literals kept. {!run} sorts each clause of a {!problem} and drops
    its duplicates; it takes a clause already ascending and without
    duplicates as it is. *)

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

type stats = {
  rounds : int;
  units : int;
  reduced_lits : int;
  scc_merges : int;
  subsumed : int;
  strengthened : int;
  clauses_before : int;
  clauses_after : int;
  lits_before : int;
  lits_after : int;
  vars_before : int;
  vars_after : int;
}

(** A Tseitin gate found among the fixpoint's clauses. The output
    variable equals [fn] over the input literals, complemented when
    [out_neg]. *)
type gate_fn = G_and of int * int | G_xor of int * int

type gate = {
  out_var : int;  (** existential; every input is dependency-below it *)
  out_neg : bool;
  fn : gate_fn;  (** over {!Sat.Lit} literals of the inputs *)
  def_clauses : int list list;
      (** the defining clauses, taken out of {!result.clauses}: together
          they are equivalent to [out_var = fn] (complemented when
          [out_neg]) *)
}

type result = {
  clauses : int list list;
      (** simplified clause set minus the gates' defining clauses, in
          arena order, {!Sat.Lit}-encoded *)
  univs : Hqs_util.Bitset.t;
  deps : (int * Hqs_util.Bitset.t) list;
      (** surviving existentials with (possibly intersected) dependency
          sets, sorted by variable; gate outputs included *)
  gates : gate list;
      (** acyclic and in topological order: an input that is another
          gate's output names an earlier gate. Empty unless {!run} was
          asked for gates. *)
  steps : step list;  (** chronological *)
  stats : stats;
}

type outcome = Unsat | Simplified of result

val run : ?config:config -> ?budget:Hqs_util.Budget.t -> ?gates:bool -> problem -> outcome
(** Run the fixpoint engine. [Unsat] means a rule refuted the formula
    (empty clause, universal unit, illegal merge). The default config is
    [config_of_mode On]. Variables of [problem] declared neither
    universal nor existential are existential with no dependencies. With
    [gates] (default false), one pass after the fixpoint detects
    Henkin-legal AND/XOR gate definitions on the occurrence lists and
    moves their clauses from [clauses] to [gates]; the [stats] clause
    and literal counts are taken before it. [budget] (default unlimited)
    is checked at the top of every fixpoint round and before gate
    detection; its exhaustion raises out of [run]. *)
