(** Canonical-form verdict cache.

    Keyed by the primary FNV-1a fingerprint of {!Dqbf.Canon}'s canonical
    rendering; the independent second fingerprint is stored alongside and
    re-checked on lookup, so a primary-hash collision degrades to a cache
    miss rather than a wrong verdict. Optionally persistent through the
    {!Exec.Journal} checksummed append-only format: a daemon killed
    mid-append leaves at most one torn trailing line, which the per-line
    checksum drops on reload. Evictions (an audit failure removing a
    poisoned entry) persist as tombstone lines, so a restart cannot
    resurrect a disproven verdict. *)

type entry = { sat : bool; elapsed_s : float; h2 : string }

type t

val open_ : ?path:string -> unit -> t
(** In-memory cache, preloaded from (and persisted to) the journal at
    [path] when given. The torn or undecodable journal lines the load
    skips are counted on the [serve.cache_dropped] counter. *)

val find : t -> Dqbf.Canon.key -> entry option
val store : t -> Dqbf.Canon.key -> sat:bool -> elapsed_s:float -> unit
val remove : t -> Dqbf.Canon.key -> unit

val size : t -> int

val close : t -> unit
