(** Prefixed CNF: the DQDIMACS-level view of a DQBF, before any AIG is
    built. This is the form the circuit encoder emits and the CNF
    preprocessor (Section III-C of the paper) rewrites.

    Variables are 0-based; clause literals are signed 1-based DIMACS ints
    (literal [v+1] / [-(v+1)] for variable [v]). *)

type t = {
  num_vars : int;
  univs : int list;  (** universal variables, declaration order *)
  exists : (int * int list) list;  (** existential variable, dependency set *)
  clauses : int list list;
}

val parse_string : string -> t
(** DQDIMACS: [a]-lines, [e]-lines (depending on all universals declared so
    far), and [d]-lines ([d y x1 .. xk 0] with an explicit dependency set).
    Variables never declared are treated as existential with no
    dependencies. Consecutive existentials share one physical dependency
    list when they come from [e]-lines with no [a]-line between them, or
    from [d]-lines whose bytes after [y] are equal. @raise Failure on
    malformed input. *)

val parse_file : string -> t
val to_string : t -> string

val to_formula : ?node_limit:int -> t -> Formula.t
(** Build the AIG matrix (conjunction of clause disjunctions) and prefix. *)

val dep_sets : t -> (int * Hqs_util.Bitset.t) list
(** [exists] with each dependency list as a bitset. A list physically
    shared with the previous existential's gets that existential's bitset:
    each run of shared lists is converted once. *)

val validate : t -> (unit, string) result
(** Check variable ranges, duplicate declarations, dependencies that are
    not universal. *)
