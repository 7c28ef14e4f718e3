(** Recording how existential variables are eliminated, so that Skolem
    functions (Definition 2) can be reconstructed after a SAT answer —
    the "certification perspective" of Balabanov et al. that the paper
    cites as reference [13].

    Every elimination step that removes an existential variable records a
    definition (the cone is snapshotted into a private manager, so later
    compaction of the solver's manager cannot invalidate it):

    - unit/pure and SAT-model variables record constants;
    - Theorem 2 and QBF existential elimination record the standard
      choice function [s_y = phi[1/y]];
    - Theorem 1 records an if-then-else merge: the original [s_y] is
      [ite(x, s_y', s_y)], where [y] continues as the x=0 branch and the
      fresh copy [y'] as the x=1 branch;
    - preprocessing records gate substitutions, equivalences and units;
    - pruned (don't-care) variables record constant false.

    Reconstruction walks the steps newest-first: any existential referred
    to by an older definition was eliminated later, so its Skolem function
    is already available for substitution. *)

type t

val create : unit -> t

val record_def : t -> Aig.Man.t -> int -> Aig.Man.lit -> unit
(** [record_def trail man y fn]: [y] was eliminated with definition [fn]
    (a literal of [man]; its cone is copied out immediately). *)

val record_const : t -> int -> bool -> unit

val record_ite : t -> y:int -> x:int -> y1:int -> unit
(** Theorem 1 bookkeeping: after this step, [y]'s final Skolem function
    becomes [ite(x, s_y1, s_y)] where the newer definitions of [y] and
    [y1] describe the x=0 / x=1 branches. *)

val num_steps : t -> int

val reconstruct : t -> Skolem.t
(** Build concrete Skolem functions (over universal inputs) for every
    variable that appears in a recorded step. *)

val record_literal : t -> int -> var:int -> neg:bool -> unit
(** [y] was replaced by the literal [±var] (equivalent-variable merges). *)
