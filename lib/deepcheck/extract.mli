(** Typed-tree ([.cmt]) extraction: one pass per unit producing the
    definition nodes, masked raise/reference sites, toplevel mutable
    state, and public surface that {!Graph} and the analyses consume. *)

module SSet : Set.S with type elt = string

type mask = All | Names of SSet.t
(** What an enclosing handler catches around a program point. *)

val mask_union : mask -> mask -> mask

val mask_catches : mask -> string -> bool
(** Does this mask swallow the named exception? The unknown exception
    ["*"] (a [raise e] on a variable) is only caught by a catch-all. *)

type origin = { o_file : string; o_line : int; o_col : int }

type node = {
  n_name : string;  (** fully qualified, e.g. ["Aig.Man.compact"] *)
  n_loc : origin;
  n_is_fun : bool;  (** arrow-typed: calling it can run its body *)
  n_mutable : string option;  (** [Some reason] for toplevel mutable state *)
  n_raises : (string * mask * origin) list;
  n_edges : (string * mask * origin) list;
}

type unit_info = {
  u_unit : string;  (** normalized module path, e.g. ["Aig.Man"] *)
  u_lib : string;
  u_source : string;
  u_nodes : node list;
  u_public : (string * origin) list;  (** values the [.mli] exports *)
}

val normalize_unit_name : string -> string
(** ["Aig__Man"] → ["Aig.Man"]; dune's ["Hqs__"] alias → ["Hqs"]. *)

val stdlib_raises : string -> string list
(** Named control-flow exceptions of a stdlib call (normalized name):
    [Hashtbl.find] → [Not_found], [int_of_string] → [Failure], every
    [Unix.*] → [Unix.Unix_error], ... Programmer-error exceptions
    (Invalid_argument, Assert_failure, bounds) are deliberately
    excluded: bug channels, not API channels. *)

val inherited_fd : string -> bool
(** Standard descriptors a forked child shares with its parent. *)

type cmt_result = Unit of unit_info | Skipped of string | Unreadable of string

val load_unit :
  lib:string -> source:string -> cmt:string -> cmti:string option -> cmt_result
(** Read and extract one compilation unit. [Unreadable] (bad magic,
    truncation, partial cmt) must be surfaced as exit 2 by the driver —
    never skipped silently. *)
