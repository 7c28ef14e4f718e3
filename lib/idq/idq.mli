(** Instantiation-based DQBF solving — the baseline the paper compares
    against (iDQ, Fröhlich et al., POS'14), reimplemented as a
    counterexample-guided instantiation loop in the same algorithmic
    family (Inst-Gen reduced to SAT):

    - keep a set S of universal assignments; ground the matrix over each
      assignment in S, with one SAT variable per (existential, projection
      onto its dependency set) pair — the "annotated" variables of iDQ;
    - if the ground conjunction is unsatisfiable, so is the DQBF
      (instantiation is sound for refutation);
    - otherwise read candidate Skolem tables from the model (unseen
      entries default to false) and look for a universal assignment
      falsifying the matrix under those tables; none means the DQBF is
      satisfied, one is added to S and the loop repeats.

    Each counterexample is provably new, so at most 2^|universals| rounds
    run. Like the real iDQ, the solver is cheap when few instances refute
    the formula and blows up when many are needed — which is exactly the
    behaviour Table I of the paper exhibits. *)

type stats = {
  mutable rounds : int;
  mutable ground_vars : int;  (** annotated existential instances created *)
  mutable instance_nodes : int;  (** AIG nodes of the ground conjunction *)
  mutable total_time : float;
}

val new_stats : unit -> stats
(** All counters zero. *)

val solve :
  ?budget:Hqs_util.Budget.t ->
  ?node_limit:int ->
  ?stats:stats ->
  Dqbf.Formula.t ->
  bool * stats
(** The returned stats are [stats] when given (a fresh record otherwise),
    filled in as the solve goes and timed on every exit, so the caller
    reads them after an exception too.
    @raise Hqs_util.Budget.Timeout on deadline.
    @raise Hqs_util.Budget.Out_of_memory_budget when the ground instance
    exceeds [node_limit] AIG nodes (memout emulation). *)

val solve_pcnf :
  ?budget:Hqs_util.Budget.t ->
  ?node_limit:int ->
  ?stats:stats ->
  Dqbf.Pcnf.t ->
  bool * stats

val solve_with_model :
  ?budget:Hqs_util.Budget.t ->
  ?node_limit:int ->
  Dqbf.Formula.t ->
  (bool * Dqbf.Skolem.t option) * stats
(** Like {!solve}; on a SAT answer the candidate Skolem tables of the
    final CEGAR round are returned as concrete functions (sum of minterms
    over each variable's dependency set). *)
