(** Crash-safe JSONL journal of completed sweep tasks — the persistence
    behind [--resume].

    One line per completed task:
    [{"c":"<fnv64-hex>","e":{"id":"<task>","data":<payload>}}] where
    ["c"] is an FNV-1a checksum of the canonical {!Obs.Json.render}ing of
    ["e"]. {!append} builds the whole line in memory, hands it to the
    kernel as a single [O_APPEND] write and fsyncs, so a supervisor
    killed mid-append leaves at most one torn trailing line; {!load}
    verifies every line's checksum and silently skips (but counts) the
    torn ones, so a resumed sweep re-runs exactly the tasks with no valid
    journal line. *)

type entry = { task_id : string; data : Obs.Json.t }

val encode_line : entry -> string
(** One journal line, without the trailing newline. *)

val decode_line : string -> (entry, string) result
(** Parse and checksum-verify one line. *)

val envelope : Obs.Json.t -> string
(** The checksummed line envelope [{"c":"<fnv64-hex>","e":<body>}] of any
    body, without the trailing newline; {!encode_line} wraps an entry in
    it, and {!Eventlog} its events. *)

val open_envelope : string -> (Obs.Json.t, string) result
(** Parse one line and verify its checksum; the body on success. *)

type t

val open_append : string -> t
(** Open (creating if missing) for appending. *)

val append : t -> entry -> unit
(** Single-write append + [fsync]. *)

val close : t -> unit
val path : t -> string

val load_lines : (string -> ('a, string) result) -> string -> 'a list * int
(** [load_lines decode path]: every non-blank line of [path] that
    [decode] accepts, in file order, and the number it rejected (torn or
    corrupt lines). A missing file is [([], 0)]. *)

type load = { entries : entry list; dropped : int }

val load : string -> load
(** All checksum-valid entries in file order; [dropped] counts torn or
    corrupt lines that were skipped. A missing file is an empty load. *)
