(** Static dependency-scheme analysis on the prefixed CNF, before any AIG
    is built: compute the reflexive resolution-path dependency scheme
    (Slivovsky & Szeider, "Computing Resolution-Path Dependencies in
    Linear Time") and refine the declared dependency sets.

    A resolution path from literal [l] to literal [l'] is a clause walk
    [C_1, ..., C_k] with [l ∈ C_1], [l' ∈ C_k], consecutive clauses
    connected through complementary literals of a {e connecting}
    existential variable, and every clause entered and exited through
    different variables. For a universal [x], the connecting variables are
    the existentials that (still) depend on [x] — including the endpoint
    itself, which is what makes the scheme {e reflexive} and sound for
    DQBF prefixes. The declared dependency [x ∈ dep(y)] is kept iff the
    matrix contains a polarity-consistent pair of paths:
    [(x ⇝ y ∧ ¬x ⇝ ¬y) ∨ (x ⇝ ¬y ∧ ¬x ⇝ y)]; otherwise no Skolem
    function for [y] can be forced to read [x] and the edge is pruned.

    The reachability sweep runs two passes per universal over a flat
    (CSR) copy of the clause/literal incidence graph, reusing its
    pass-stamped work arrays and an int stack sized 2n + 1; a clause is
    scanned at most once per pass (first entry expands every exit variable
    but the entry variable, a second entry through a different variable
    releases the one skipped literal), so each pass is linear in the
    formula size. The incomparable-pair counts group equal dependency sets
    into classes first: O(|E| + d²) subset tests for d distinct sets.

    Pruned prefixes only shrink: every refined dependency set is a subset
    of the declared one, so downstream universal reduction, MaxSAT
    elimination-set selection and linearization all operate on a smaller
    dependency graph — and a prefix whose refined sets are pairwise
    comparable ({!report.linearized}) skips universal expansion entirely. *)

type refinement = {
  var : int;  (** 0-based existential variable *)
  before : int list;  (** declared dependency set, declaration order *)
  after : int list;  (** refined dependency set (a subset of [before]) *)
}

type report = {
  scheme : Scheme.t;
  universals : int;
  existentials : int;  (** declared existentials (undeclared ones have no edges) *)
  clause_count : int;
  edges_before : int;  (** total declared dependency edges *)
  edges_after : int;
  pruned : (int * int) list;
      (** pruned edges [(x, y)] — universal [x] dropped from [dep(y)];
          ordered by existential declaration, then dependency order *)
  refinements : refinement list;  (** declared existentials, declaration order *)
  incomparable_before : int;  (** existential pairs with incomparable dependency sets *)
  incomparable_after : int;
  linearized : bool;
      (** the refined dependency graph is linearly orderable (zero
          incomparable pairs) while the declared one was not — the solve
          can skip universal expansion outright *)
}

val analyze : scheme:Scheme.t -> Dqbf.Pcnf.t -> Dqbf.Pcnf.t * report
(** Refine the prefix under [scheme]. [Trivial] returns the input
    unchanged (with an identity report); [Rp] returns a copy whose
    [exists] dependency lists are filtered to the resolution-path
    dependencies. Clauses, variable numbering and declaration order are
    untouched. Runs under an ["analysis.rp"] span and bumps the
    ["analysis.edges_pruned"] / ["analysis.linearized"] counters. *)

val pp_report : Format.formatter -> report -> unit
(** The per-variable refinement report printed by [hqs analyze]: header
    [c analysis ...] lines, one [v ...] line per declared existential
    (DIMACS 1-based ids), and a final machine-greppable
    [s analysis pruned=N linearized=yes|no] line. *)
