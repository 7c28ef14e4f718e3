(** Soundness auditor: invariant validators gating every pipeline stage.

    HQS's verdict is trustworthy only while each transformation (Theorem 1/2
    eliminations, unit/pure rewrites, gate substitution, compaction) preserves the
    AIG's structural invariants and the Henkin dependency semantics. This
    module makes those invariants executable: {!audit_stage} is wired into
    the solver at every stage boundary and raises a structured {!Violation}
    at the first transformation that corrupted the state — instead of the
    corruption surfacing many stages later as a wrong SAT/UNSAT answer.

    Cost model: [Cheap] validators are linear in the prefix (dependency
    sets, quantifier disjointness, queue sanity) and constant in the matrix;
    [Full] additionally audits the whole AIG manager (O(nodes + hash
    entries) per stage boundary) and certifies Skolem models with an
    independent SAT call on a SAT verdict. [Full] typically multiplies
    solve time by a small constant; use it in CI and when hunting a
    suspected soundness bug, [Cheap] when a cheap tripwire is enough. *)

type level = Off | Cheap | Full

type stage =
  | Post_analysis  (** after the static dependency-scheme refinement *)
  | Post_inproc  (** after the occurrence-indexed inprocessing engine ran *)
  | Post_preprocess  (** after CNF preprocessing built the formula *)
  | Post_unitpure  (** after a unit/pure round substituted variables *)
  | Post_elimination  (** after a Theorem 1/2 elimination *)
  | Post_compact  (** after cone compaction replaced the manager *)
  | Post_linearize  (** once the dependency graph is acyclic (a linear prefix) *)
  | Post_solve  (** after a verdict, when certifying a Skolem model *)
  | Post_certify  (** after a certificate artifact was materialized *)

val stage_name : stage -> string
val level_name : level -> string

val level_of_string : string -> level option
(** Accepts ["off"]/["none"]/["0"], ["cheap"]/["1"], ["full"]/["2"]. *)

type violation = { stage : stage; structure : string; detail : string }
(** Where the audit tripped ([stage]), which validator ([structure]:
    ["aig-manager"], ["dqbf-formula"], ["elimination-queue"],
    ["skolem-model"]), and a minimized description of the
    broken invariant with the offending indices. *)

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

val audit_dep_pruning :
  ?budget:Hqs_util.Budget.t ->
  ?samples:int ->
  level:level ->
  Dqbf.Pcnf.t ->
  pruned:(int * int) list ->
  unit
(** Gate the static dependency-scheme refinement ([lib/analysis]): given
    the {e original} prefixed CNF and the list of pruned edges [(x, y)]
    (universal [x] dropped from [dep(y)]), check structurally that every
    pruned edge was declared, and — at [Full] level, on instances small
    enough for the reference expansion solver — semantically validate a
    deterministic sample of [samples] (default 3) pruned edges: dropping
    the edge alone from the declared prefix must not flip the
    {!Dqbf.Reference.by_expansion} verdict. The semantic pass runs under
    a sub-deadline of [budget] and is abandoned (not failed) if that
    expires. [structure] is ["dep-scheme"] on violation. *)

val audit_inproc :
  ?budget:Hqs_util.Budget.t -> level:level -> Dqbf.Pcnf.t -> Inproc.outcome -> unit
(** Gate the CNF inprocessing engine: given the prefixed CNF as fed to
    the engine and the engine outcome, validate every step witness
    structurally against the declared prefix — units and merges are
    existential, merges against universals are dependency-legal,
    subsumption/strengthening witnesses really justify the deletion —
    plus the surviving prefix (no dependency widening). Each gate's
    output is a surviving existential defined once, after any gate it
    reads; its inputs are
    dependency-below it; its defining clauses are exactly the Tseitin
    encoding of its function. At [Full] level, on instances small enough for
    the reference expansion solver, the whole run is certified
    semantically: the {!Dqbf.Reference.by_expansion} verdict of the
    simplified formula (falsity, for an [Unsat] outcome) must match the
    original formula's. The semantic pass runs under a sub-deadline of
    [budget] and is abandoned (not failed) if that expires. [structure]
    is ["inproc"] on violation. *)

val audit_stage :
  level:level -> ?queue:int list -> stage -> Dqbf.Formula.t -> unit
(** The stage gate: audit the formula (and, when given, the elimination
    queue) at the [level] of depth described above. [Off] is free.
    @raise Violation on the first broken invariant. *)

val audit_man : stage:stage -> Aig.Man.t -> unit
(** Deep AIG-manager audit: node-0 constant marker, input/AND tagging,
    topological acyclicity, no dangling fanins past [num_nodes], normalized
    fanin order, structural-hash bijectivity (every AND reachable through
    its own key, no poisoned entries), input-label bijectivity. *)

val audit_formula : stage:stage -> level:level -> Dqbf.Formula.t -> unit
(** Formula validator: matrix literal validity, universal/existential
    disjointness, dependency sets included in the declared universals,
    variable ids below [next_var]; [Full] adds {!audit_man} and checks the
    matrix support against the quantified variables. *)

val audit_queue : stage:stage -> Dqbf.Formula.t -> int list -> unit
(** Elimination-queue consistency: ids in range, no still-universal
    variable queued twice (stale eliminated entries are legal — the solver
    skips them). *)

val audit_model :
  ?budget:Hqs_util.Budget.t -> stage:stage -> Dqbf.Formula.t -> Dqbf.Skolem.t -> unit
(** Skolem-model certifier: replayed witness respects the dependency sets
    and satisfies the original matrix, checked by an independent SAT call
    ({!Dqbf.Skolem.verify}). *)

val audit_cache_hit : level:level -> key:string -> cached_sat:bool -> fresh_sat:bool -> unit
(** Gate for the serve daemon's verdict cache: a sampled cache hit was
    re-solved from scratch and both verdicts are presented. At [Off]
    this is free; otherwise a disagreement raises {!Violation} with
    [structure = "verdict-cache"] — memoization returning a different
    answer than the solver is exactly the class of wrongness this
    module exists to trip on. *)

val audit_certificate :
  ?budget:Hqs_util.Budget.t ->
  level:level ->
  instance_text:string ->
  Dqbf.Pcnf.t ->
  Cert.t ->
  unit
(** Gate an emitted certificate ([Post_certify] stage, [structure =
    "certificate"]): the structural checks ({!Cert.check_structural})
    run at [Cheap] and above; [Full] re-verifies the semantic claim via
    {!Cert.check} under [budget] (expiry abandons the semantic pass
    rather than failing it). [Uncertified] artifacts pass unless
    {!Cert.is_inconsistent} — a full expansion that contradicts the
    verdict is a violation, not a capacity gap. A failure here is
    treated by callers like a crash: re-solve under escalated checks,
    evict poisoned cache entries, quarantine after bounded attempts. *)
