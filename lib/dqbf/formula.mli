(** DQBF formulas (Definitions 1-2 of the paper): a set of universal
    variables, existential variables with explicit dependency sets (Henkin
    quantifiers), and a matrix kept as an AIG.

    Variables are non-negative ints shared with the AIG input labels. The
    structure is mutable: the solver eliminates variables in place. *)

type t

val create : ?node_limit:int -> unit -> t

val man : t -> Aig.Man.t
val matrix : t -> Aig.Man.lit
val set_matrix : t -> Aig.Man.lit -> unit

val replace_man : t -> Aig.Man.t -> Aig.Man.lit -> unit
(** Swap in a new manager and matrix (after compaction). *)

val add_universal : t -> int -> unit
val add_existential : t -> int -> deps:Hqs_util.Bitset.t -> unit
(** @raise Invalid_argument if the variable exists already or a dependency
    is not a universal variable. *)

val fresh_var : t -> int
(** An unused variable id (also bumps the internal counter). *)

val next_var : t -> int
(** Exclusive upper bound on every variable id seen so far (quantified or
    fresh); dominates the ids a well-formed elimination queue may hold. *)

val universals : t -> Hqs_util.Bitset.t
val num_universals : t -> int
val is_universal : t -> int -> bool
val is_existential : t -> int -> bool

val deps : t -> int -> Hqs_util.Bitset.t
(** Dependency set of an existential variable. @raise Not_found. *)

val set_deps : t -> int -> Hqs_util.Bitset.t -> unit

val existentials : t -> (int * Hqs_util.Bitset.t) list
(** Sorted by variable id. *)

val remove_universal : t -> int -> unit
(** Remove from the prefix and from every dependency set. *)

val remove_existential : t -> int -> unit

val input : t -> int -> Aig.Man.lit
(** AIG input literal for a variable. *)

val copy : t -> t
(** Deep copy (fresh manager holding only the matrix cone). *)

val pp : Format.formatter -> t -> unit
