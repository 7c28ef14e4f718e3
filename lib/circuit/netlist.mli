(** Gate-level combinational netlists, optionally containing black boxes —
    the incomplete designs of the paper's reference application (partial
    equivalence checking, Section IV).

    Signals are dense ints in creation order; a netlist is complete when it
    has no black boxes. *)

type kind = And | Or | Nand | Nor | Xor | Xnor | Not | Buf

type node =
  | Input of int  (** primary input index *)
  | Gate of kind * int list  (** fanin signals; arity >= 1, Not/Buf = 1 *)
  | Bb_out of { bb : int; port : int }  (** output [port] of black box [bb] *)

type blackbox = {
  bb_inputs : int list;  (** signals the box observes *)
  bb_outputs : int list;  (** the signals carrying its outputs *)
}

type t = {
  name : string;
  num_inputs : int;
  nodes : node array;  (** indexed by signal *)
  outputs : int list;
  boxes : blackbox array;
}

val is_complete : t -> bool

val eval : t -> bool array -> bool array
(** Evaluate a complete netlist on an input vector.
    @raise Invalid_argument if the netlist has black boxes or the input
    vector has the wrong length. *)

val eval_with_boxes : t -> box_fn:(int -> bool list -> bool list) -> bool array -> bool array
(** Evaluate with concrete black-box implementations: [box_fn i ins] must
    return one value per output port of box [i]. *)

val counts : t -> int * int
(** (gate count, black-box count). *)

(** Imperative construction. *)
module Builder : sig
  type netlist := t
  type t

  val create : string -> t
  val input : t -> int
  val inputs : t -> int -> int list
  val gate : t -> kind -> int list -> int
  val not_ : t -> int -> int
  val and2 : t -> int -> int -> int
  val or2 : t -> int -> int -> int
  val xor2 : t -> int -> int -> int
  val xnor2 : t -> int -> int -> int

  val black_box : t -> inputs:int list -> num_outputs:int -> int list
  (** Returns the box's output signals. *)

  val build : t -> outputs:int list -> netlist
end
