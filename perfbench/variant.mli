(** Seeded look-alike copies of an instance for the serve workload's
    cache-hit stream. *)

val shuffle : Hqs_util.Rng.t -> 'a list -> 'a list
(** A uniformly random permutation of the list. *)

val rename : Hqs_util.Rng.t -> Dqbf.Pcnf.t -> Dqbf.Pcnf.t
(** A dependency-respecting renaming with shuffled clauses: universals
    are permuted among universals, declared existentials among declared
    existentials and undeclared variables among themselves, dependency
    sets are mapped along, and the order of declarations, dependencies,
    clauses and literals is shuffled. The copy has the same verdict and,
    whenever {!Dqbf.Canon} labels it exactly, the same canonical key. *)
