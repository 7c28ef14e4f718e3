(** Wire protocol of the serve daemon.

    Everything travels as length-prefixed {!Obs.Json} frames
    ({!Exec.Ipc}). The client protocol is request/reply over a Unix
    domain socket: one [Solve] per connection is the supported shape
    ([hqs query]); a connection that pipelines several solves receives
    the replies in completion order, not submission order. The job
    result is the payload a forked solve returns to the daemon through
    {!Exec.Pool}; it is not a public interface. *)

type request =
  | Solve of {
      text : string;  (** the DQDIMACS instance, verbatim *)
      timeout_s : float option;  (** per-request deadline; daemon default if absent *)
      sleep_s : float;
          (** test hook: the worker sleeps this long {e inside} the solve
              budget before solving, so a sleep past [timeout_s] expires
              the budget deterministically — makes deadline-expiry, queue
              and drain tests repeatable. 0 in production. *)
      want_cert : bool;
          (** ask for the solve's certificate artifact inline in the
              {!Verdict} reply (only honored by a daemon running with
              certification on) *)
    }
  | Ping
  | Health
      (** live introspection snapshot: pool occupancy, latency quantiles
          and the daemon's metric registry, for [hqs top] and
          [hqs query --stats] *)

type failure = F_timeout | F_memout | F_crash

(** Introspection snapshot returned for {!Health}: pool occupancy plus
    rolling request-latency quantiles from the daemon's windowed
    histogram. Quantiles are [nan] (and omitted on the wire) until at
    least one request has completed. *)
type health = {
  live_workers : int;  (** pool slots: each busy slot runs one forked solve *)
  h_queue_depth : int;
  in_flight : int;  (** slots currently solving *)
  draining : bool;
  uptime_s : float;
  states : string list;  (** ["idle"] or ["busy"] per pool slot *)
  lat_n : int;  (** observations in the latency window *)
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  h_metrics : (string * float) list;
}

type reply =
  | Verdict of {
      sat : bool;
      elapsed_s : float;
      cached : bool;
      audited : bool;
      cert : string option;
          (** the rendered certificate artifact, inline, when the request
              asked for one and the certifying solve produced it ([None]
              for cache hits — the cache stores verdicts, not artifacts) *)
    }
  | Failed of { failure : failure; elapsed_s : float; detail : string }
      (** structured failure — the client never sees a torn connection *)
  | Overloaded of { queue_depth : int }  (** admission queue full; retry later *)
  | Draining  (** daemon is shutting down; new work refused *)
  | Invalid of string  (** unparsable request or instance *)
  | Pong
  | Health_reply of health
  | Audit_failed of { cached_sat : bool; fresh_sat : bool }
      (** a sampled cache-hit re-solve disagreed with the memoized verdict *)

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val reply_to_json : reply -> Obs.Json.t
val reply_of_json : Obs.Json.t -> (reply, string) result

(** {1 Job result (daemon-internal)} *)

type wresult =
  | W_sat of bool
  | W_timeout
  | W_memout
  | W_error of string
  | W_cert_failed of string
      (** the in-worker certificate audit tripped ({!Check.Violation} at
          the [Post_certify] stage) — the daemon treats this like a
          crash: evict the cache entry, retry escalated, quarantine *)

type wreply = {
  result : wresult;
  w_elapsed_s : float;
  cert_blob : string option;
      (** the rendered certificate on a successful certifying solve *)
}

val wreply_to_json : wreply -> Obs.Json.t
val wreply_of_json : Obs.Json.t -> (wreply, string) result
