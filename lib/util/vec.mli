(** Growable arrays with amortized O(1) push, used pervasively by the SAT
    solver and the AIG manager. A [dummy] element fills unused capacity. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Remove and return the last element. @raise Invalid_argument if empty. *)

val last : 'a t -> 'a

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val clear : 'a t -> unit

val grow_to : 'a t -> int -> 'a -> unit
(** [grow_to v n x] extends [v] with copies of [x] until [size v >= n]. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : dummy:'a -> 'a list -> 'a t

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes index [i] by moving the last element into it. *)

val copy : 'a t -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
