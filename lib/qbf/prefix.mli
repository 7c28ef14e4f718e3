(** Linearly ordered QBF quantifier prefixes (Definition 3 of the paper). *)

type quant = Forall | Exists

type t = (quant * int list) list
(** Blocks, outermost first. Invariants after {!normalize}: no empty blocks,
    adjacent blocks have different quantifiers, no duplicate variables. *)

val normalize : t -> t
(** Drop empty blocks and merge adjacent blocks of the same quantifier. *)

val restrict : t -> keep:(int -> bool) -> t
(** Keep only the variables satisfying [keep], then normalize. *)

val variables : t -> int list
val quant_of : t -> int -> quant option
val pp : Format.formatter -> t -> unit
