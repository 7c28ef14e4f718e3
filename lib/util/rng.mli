(** Deterministic pseudo-random numbers (splitmix64), so that simulation
    vectors, benchmark instances and property tests are reproducible without
    touching the global [Random] state. *)

type t

val create : int -> t
(** [create seed] returns an independent generator. *)

val bits : t -> int
(** 62 uniformly random non-negative bits. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)

val bool : t -> bool
val float : t -> float -> float
val split : t -> t
(** A fresh generator derived from (and advancing) [t]. *)
