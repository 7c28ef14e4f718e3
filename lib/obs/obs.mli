(** Observability substrate for the HQS pipeline: hierarchical tracing
    spans and a metrics registry — both zero-dependency (Unix clock +
    [Gc.quick_stat] only), so every solver layer can be instrumented
    without new libraries.

    Cost model, by design:
    - a {e disabled} {!Span.with_} is one branch plus the thunk call, so
      span sites can sit at stage boundaries of the hot solve loop;
    - {!Metrics} updates are unconditional plain field stores (an [int]
      or [float] each) and are always on — cheap enough for per-node hot
      paths like the AIG structural-hash lookup;
    - tracing allocates one event record per span boundary while enabled
      and is bounded by an internal event cap (overflow is counted in
      {!Trace.dropped}, never silent).

    Tracing state is global and single-threaded, matching the solver. *)

(** Attribute values attached to spans and events. *)
type value = Int of int | Float of float | Str of string | Bool of bool

(** Named counters, gauges and histograms, registered once in a global
    registry (re-registering a name returns the same instrument;
    registering it as a different kind raises [Invalid_argument]). *)
module Metrics : sig
  type kind = Counter | Gauge | Histogram
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  val gauge : string -> gauge
  val histogram : string -> histogram

  val incr : ?by:int -> counter -> unit
  val counter_value : counter -> int

  val set : gauge -> float -> unit

  val set_max : gauge -> float -> unit
  (** Keep the maximum of all values set so far (peak tracking). *)

  val gauge_value : gauge -> float

  val observe : histogram -> float -> unit

  type hist_stats = { count : int; sum : float; min_ : float; max_ : float }

  val histogram_stats : histogram -> hist_stats

  type window
  (** A rolling window over the last [capacity] observations, for live
      latency quantiles. Windows live in their own registry and are
      deliberately excluded from {!snapshot}/{!delta}, so cross-process
      metric frames keep their shape. *)

  val window : ?capacity:int -> string -> window
  (** Register (or fetch) the named window; [capacity] defaults to 512
      and is fixed by the first registration. Raises [Invalid_argument]
      when [capacity <= 0]. *)

  val wobserve : window -> float -> unit
  (** Record an observation, evicting the oldest once full. *)

  val window_count : window -> int
  (** Observations currently held (≤ capacity). *)

  val quantile : window -> float -> float
  (** Nearest-rank quantile over the current window contents ([q] clamped
      to [0,1]); [nan] while the window is empty. *)

  type sample = { name : string; kind : kind; v : float }

  val snapshot : unit -> sample list
  (** Every registered instrument flattened to named numbers, sorted by
      name. A histogram [h] contributes [h.count], [h.sum], [h.min] and
      [h.max]. *)

  val delta : before:sample list -> after:sample list -> sample list
  (** Per-interval view: counters and histogram count/sum series are
      subtracted ([after - before]); gauges and histogram min/max are
      levels, not flows, and pass through unchanged. *)

  val to_assoc : sample list -> (string * float) list
  val find : sample list -> string -> float option

  val reset_all : unit -> unit
  (** Zero every instrument in place; handles stay valid. *)

  val kind_name : kind -> string
  val kind_of_name : string -> kind option

  val absorb : sample list -> unit
  (** Merge a snapshot taken in {e another process} (a forked sweep
      worker) into this registry: counters are added, gauges keep the
      maximum, and the four flattened histogram series of each histogram
      are regrouped and merged into the instrument (counts/sums added,
      min/max widened). Unknown names are registered on the fly. *)
end

(** Minimal recursive-descent JSON reader — enough to validate and
    inspect the traces this module writes (CI and tests). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Whole-input parse; [Error] carries a message with an offset.
      Unicode escapes are validated but decoded to a placeholder. *)

  val render : t -> string
  (** Compact one-line serialization, the dual of {!parse}. The rendering
      is canonical (a fixed spelling per value), so checksums computed
      over it — the executor journal's per-line integrity check — survive
      a parse/serialize round trip. Non-finite numbers are quoted
      (["nan"], ["inf"]), matching the trace writer. *)

  val member : string -> t -> t option
  val to_list : t -> t list option
  val to_string : t -> string option
  val to_number : t -> float option
end

(** The raw trace: a chronological stream of begin/end/instant events. *)
module Trace : sig
  type ph = Begin | End | Instant

  type event = { name : string; ph : ph; ts_us : float; tid : int; attrs : (string * value) list }
  (** [ts_us] is microseconds since {!start}. [tid] is the Chrome thread
      row the event renders on; span events use row 1, and supervisors
      give each concurrent logical task its own row via {!emit}. *)

  val enabled : unit -> bool

  val start : unit -> unit
  (** Clear the buffer, reset the clock origin and enable recording. *)

  val stop : unit -> unit
  (** Disable recording; the buffer stays readable. *)

  val reset : unit -> unit
  (** Disable and clear. *)

  val events : unit -> event list

  val dropped : unit -> int
  (** Events discarded past the internal cap (0 in any sane run). *)

  val depth : unit -> int
  (** Number of currently open spans. *)

  val truncated : unit -> bool
  (** Whether any merged worker batch was cut short by a mid-span death
      (reported as ["truncated": true] in the Chrome [otherData]). *)

  val emit : ?tid:int -> ?attrs:(string * value) list -> string -> ph -> unit
  (** Stack-free event emission for code multiplexing overlapping logical
      tasks (one [tid] row each), where {!Span.with_}'s strict nesting
      cannot apply. No-op while tracing is disabled. *)

  val events_to_json : event list -> Json.t
  (** Compact wire form of an event batch, for shipping a worker's span
      buffer across the IPC boundary. *)

  val events_of_json : Json.t -> event list
  (** Decode {!events_to_json}; malformed entries are skipped (the batch
      may come from a worker killed mid-write), never fatal. *)

  val inject : pid:int -> ?dropped:int -> ?truncated:bool -> event list -> unit
  (** Merge a batch recorded in another process under its own pid row of
      the Chrome output. Unbalanced [Begin] events (worker died by signal
      mid-span) get synthesized [End] events at the batch horizon and the
      trace is flagged {!truncated} instead of being written torn;
      [dropped] adds the worker's drop counter to this trace's. *)

  val to_chrome_json : unit -> string
  (** Serialize as Chrome [trace_event] JSON (load in [chrome://tracing]
      or Perfetto): [{"traceEvents": [...], ...}] with ["B"]/["E"]/["i"]
      phase records, microsecond timestamps, attrs under ["args"]. *)

  val write_chrome_json : string -> unit

  type total = { span : string; calls : int; total_s : float; self_s : float }

  val totals : unit -> total list
  (** Flame aggregation of the B/E stream per span name: call count,
      inclusive wall time, and self time (inclusive minus nested spans);
      sorted by inclusive time, descending. *)

  val flame_summary : unit -> string
  (** Human-readable table of {!totals}. *)
end

(** Hierarchical spans over {!Trace}. *)
module Span : sig
  val with_ : string -> ?attrs:(string * value) list -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f], bracketing it with begin/end events while
      tracing is enabled (one branch otherwise). The end event is emitted
      on both normal return and exception (tagged [raised]); exceptions
      propagate. Span ends also sample the heap into the
      ["gc.heap_words.peak"] gauge. *)

  val event : string -> ?attrs:(string * value) list -> unit -> unit
  (** Instant event inside the currently open span (no-op when tracing is
      disabled). This is the per-step event-log channel: elimination
      steps, preprocessing summaries and the daemon's crashes and audit
      failures are recorded this way. *)

  val current : unit -> string option
  (** Name of the innermost open span. *)

  val set_flush_hook : (unit -> unit) option -> unit
  (** Install (or clear) a hook run after every span exit — including
      with tracing disabled, where {!with_} costs one extra branch. A
      forked worker installs a throttled partial-state flusher here so a
      SIGKILL between spans still leaves a recent metric/trace snapshot
      on the parent's side of the pipe. Exceptions raised by the hook
      are swallowed: a dead parent must not take the solve down. *)
end

val fork_reinit : unit -> unit
(** Call first thing in every freshly forked worker. Drops the parent's
    buffered trace events and open-span stack but keeps the enabled flag
    and the clock origin (the Budget clock is machine-wide monotonic, so
    child timestamps merge directly into the parent's timeline), rebinds
    the recorded pid to the child, clears the {!Span.set_flush_hook} hook (an
    inherited hook would write partial frames onto a pipe fd the child
    does not own), and resets the [Mono] fallback clock's high-water
    mark — so no child observability state aliases the parent's. The
    deepcheck fork-safety analysis sanctions the underlying mutable
    globals on the strength of this reset running on every worker entry
    path. *)
