(** The solver daemon behind [hqs serve]: admission, verdict cache and
    client protocol in front of one {!Exec.Pool}.

    A single-threaded select loop ({!Exec.Pool.wait}) owns a Unix-domain
    listen socket and the client connections. Each solve request is
    parsed, validated and canonicalized at admission; a cache miss
    becomes one pool task whose forked child solves that parsed formula,
    so the instance text never crosses a second socket. Robustness
    properties, in order of importance:

    - a client always receives a structured reply — a crashed solve is
      retried and then answered with [crash], budget exhaustion with
      [timeout]/[memout], a solve still running at deadline + grace is
      SIGKILLed and answered with [timeout]; never a hung or torn
      connection;
    - crash retries wait out the exponential {!Exec.Backoff}
      delay and then run ahead of newly admitted jobs, so a poisoned
      instance cannot turn the pool into a fork bomb;
    - admission is bounded: past [queue_cap] queued jobs, new solves are
      shed with an explicit [overloaded] reply and counted;
    - SIGTERM/SIGINT drain gracefully: in-flight jobs finish, new solves
      get [draining], then the daemon exits cleanly; SIGPIPE is ignored
      throughout, so a disconnecting client cannot kill the daemon (its
      verdict is still computed and cached);
    - verdicts are memoized by {!Dqbf.Canon} canonical key in a
      {!Cache}; at [Check.Full] every [audit_period]-th cache hit is
      re-solved from scratch and compared ({!Check.audit_cache_hit}) —
      a mismatch evicts the entry and tells the client;
    - with [certify] on, every solve certifies ({!Hqs.run} [~certify])
      and the child audits the artifact
      in-frame ({!Check.audit_certificate}); an audit failure is treated
      like a crash: the cache entry is tombstoned ([cert_audit] event,
      [serve.cert_audit_failed] metric), the job re-submitted with
      checks escalated to [Full], and quarantined past [max_attempts]. Clients that set the request's cert flag get
      the verified artifact inline in their verdict reply.

    Everything observable is metered under [serve.*] in {!Obs.Metrics}
    and, when [trace_path] is set, traced to Chrome JSON. *)

type config = {
  socket_path : string;
  workers : int;  (** concurrent forked solves (pool size), >= 1 *)
  queue_cap : int;  (** queued (not yet dispatched) job bound, >= 1 *)
  default_timeout_s : float;  (** per-request budget when the client sends none *)
  max_timeout_s : float;  (** ceiling on client-requested budgets *)
  kill_grace_s : float;  (** SIGKILL a solve this long past its request deadline *)
  max_attempts : int;  (** dispatches per job before a [crash] reply *)
  mem_limit_mb : int option;  (** per-request heap budget, in MB *)
  backoff : Exec.Backoff.policy;  (** crash-retry delay schedule *)
  chaos : Hqs_util.Chaos.t;
      (** handed to the pool, whose
          {!Hqs_util.Chaos.worker_kill_point} for [task_id ~jid] makes
          that dispatch's child SIGKILL itself before it solves; with
          [certify] on, {!cert_point}s corrupt the child's certificate
          before its audit to drive the recovery loop deterministically.
          The attempt in both names is the job's n-th dispatch, escalated
          re-solves included *)
  audit_period : int;  (** re-solve every Nth cache hit (0 disables) *)
  cache_path : string option;  (** persistent cache journal *)
  trace_path : string option;
      (** write a Chrome trace on exit: daemon spans plus each forked
          solve's span buffer merged under its own pid row ({!Exec.Pool}),
          its [serve.solve] span carrying the request's trace id *)
  event_log : string option;
      (** size-rotated {!Exec.Eventlog} of lifecycle events (admissions,
          sheds, crashes, retries, quarantines, timeouts, cache audits,
          drain), each tagged with the request's trace id *)
  solver : Hqs.config;
      (** the solve configuration; its [check_level] at [Full] also
          enables the sampled cache-hit audits *)
  certify : bool;
      (** solve through the certifying entry point and audit every
          artifact in the child, at [solver.check_level] ([Full] when the
          job is an escalated re-solve) *)
}

val default : socket_path:string -> config

val task_id : jid:int -> string
(** The pool task id of job [jid] (job ids count from 1 in admission
    order): the [~task] of its {!Hqs_util.Chaos.worker_kill_point}s. *)

val cert_point : jid:int -> attempt:int -> string
(** Chaos point name for one dispatch's certificate-poison fault:
    ["serve.cert.poison:<jid>#<attempt>"]. *)

val run : config -> unit
(** Serve until drained by SIGTERM/SIGINT. Binds (replacing any stale
    file at) [socket_path], removes it on exit, restores the previous
    signal dispositions. @raise Invalid_argument on nonsensical pool or
    queue bounds. *)
