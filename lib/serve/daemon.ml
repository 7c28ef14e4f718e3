module Json = Obs.Json
module Metrics = Obs.Metrics
module Span = Obs.Span
module Budget = Hqs_util.Budget
module Chaos = Hqs_util.Chaos
module Ipc = Exec.Ipc
module Pool = Exec.Pool

(* ---------------------------------------------------------------- config *)

type config = {
  socket_path : string;
  workers : int;
  queue_cap : int;
  default_timeout_s : float;
  max_timeout_s : float;
  kill_grace_s : float;
  max_attempts : int;
  mem_limit_mb : int option;
  backoff : Exec.Backoff.policy;
  chaos : Chaos.t;
  audit_period : int;
  cache_path : string option;
  trace_path : string option;
  event_log : string option;
  solver : Hqs.config;
  certify : bool;
}

let default ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_cap = 16;
    default_timeout_s = 60.;
    max_timeout_s = 600.;
    kill_grace_s = 2.;
    max_attempts = 3;
    mem_limit_mb = None;
    backoff = Exec.Backoff.default;
    chaos = Chaos.off;
    audit_period = 4;
    cache_path = None;
    trace_path = None;
    event_log = None;
    solver = Hqs.default_config;
    certify = false;
  }

let task_id ~jid = Printf.sprintf "serve.job%d" jid
let cert_point ~jid ~attempt = Printf.sprintf "serve.cert.poison:%d#%d" jid attempt

(* deterministic certificate corruption behind the chaos poison hook: a
   flipped fingerprint nibble is caught by the structural audit *)
let poison_cert (c : Cert.t) =
  let fp = Bytes.of_string c.Cert.fingerprint in
  if Bytes.length fp > 0 then Bytes.set fp 0 (if Bytes.get fp 0 = '0' then '1' else '0');
  { c with Cert.fingerprint = Bytes.to_string fp }

(* --------------------------------------------------------------- metrics *)

let m_requests = Metrics.counter "serve.requests"
let m_queue_depth = Metrics.gauge "serve.queue_depth"
let m_shed = Metrics.counter "serve.shed"
let m_crashes = Metrics.counter "serve.worker_crashes"
let m_cache_hits = Metrics.counter "serve.cache_hits"
let m_cache_misses = Metrics.counter "serve.cache_misses"
let m_audits = Metrics.counter "serve.cache_audits"
let m_audit_failures = Metrics.counter "serve.cache_audit_failures"
let m_cert_audits = Metrics.counter "serve.cert_audits"
let m_cert_audit_failures = Metrics.counter "serve.cert_audit_failed"
let m_timeouts = Metrics.counter "serve.timeouts"
let m_latency = Metrics.histogram "serve.request_latency_s"

(* rolling window behind the health reply's p50/p95/p99 — same series as
   the histogram, but windowed so a long-lived daemon reports *recent*
   latency, not its lifetime average *)
let w_latency = Metrics.window "serve.request_latency_s"

(* ------------------------------------------------------------------ jobs *)

type job = {
  jid : int;
  cid : int;
  key : Dqbf.Canon.key;
  pcnf : Dqbf.Pcnf.t;  (** parsed and validated at admission *)
  text : string;  (** the instance bytes, for certificates *)
  timeout_s : float;
  sleep_s : float;
  enqueued_at : float;
  trace : string;  (** request trace id, minted at admission *)
  audit_of : Cache.entry option;  (** [Some e]: sampled re-solve of a cache hit *)
  want_cert : bool;  (** the client asked for the artifact inline *)
  escalate : bool;
      (** re-solve after a certificate audit failure: the solve runs
          under full checks *)
}

(* The body of one pool task: runs in the forked child, solves the
   formula the daemon parsed at admission and returns the job result.
   Every failure mode of a solve comes back as a structured result
   ({!Hqs.run} classifies the budget exhaustions); the child only dies
   on the pool's chaos and wall kills or genuine solver bugs,
   which the pool classifies as crash attempts. [attempt] is the job's
   n-th dispatch, counting escalated re-solves, as in the pool's point
   names. *)
let solve_job (config : config) job ~attempt =
  let poison = config.certify && Chaos.fire config.chaos (cert_point ~jid:job.jid ~attempt) in
  let t0 = Budget.now () in
  let budget = Budget.of_seconds job.timeout_s in
  let budget =
    match config.mem_limit_mb with
    | Some mb -> Budget.with_mem_limit_mb budget mb
    | None -> budget
  in
  if job.sleep_s > 0. then Unix.sleepf job.sleep_s;
  let solver =
    (* escalated re-solve after a certificate audit failure *)
    if job.escalate then Hqs.escalated_config config.solver else config.solver
  in
  let solve () =
    (* the solver's own Post_certify audit is disabled when certifying:
       the audit must run in this frame, after the chaos poison hook, so
       fault injection exercises exactly the gate the daemon's recovery
       loop listens to *)
    let stages = if config.certify then { solver with Hqs.check_level = Check.Off } else solver in
    let certify = if config.certify then Some job.text else None in
    let r = Hqs.run ~config:stages ~budget ?certify job.pcnf in
    match (r.Hqs.outcome, r.Hqs.cert) with
    | Hqs.Timeout, _ -> (Proto.W_timeout, None)
    | Hqs.Memout, _ -> (Proto.W_memout, None)
    | Hqs.Verdict v, None -> (Proto.W_sat (v = Hqs.Sat), None)
    | Hqs.Verdict v, Some art -> (
        let art = if poison then poison_cert art else art in
        let level = solver.Hqs.check_level in
        match Check.audit_certificate ~budget ~level ~instance_text:job.text job.pcnf art with
        | () -> (Proto.W_sat (v = Hqs.Sat), Some (Cert.render art))
        | exception Check.Violation viol ->
            (Proto.W_cert_failed (Format.asprintf "%a" Check.pp_violation viol), None)
        (* the audit runs under the job's heap ceiling too; it abandons
           its semantic pass at the deadline by itself *)
        | exception Budget.Out_of_memory_budget -> (Proto.W_memout, None))
  in
  let solve () =
    if Obs.Trace.enabled () then
      Span.with_ "serve.solve"
        ~attrs:[ ("jid", Obs.Int job.jid); ("trace_id", Obs.Str job.trace) ]
        solve
    else solve ()
  in
  let result, cert_blob =
    match solve () with
    | r -> r
    | exception Failure msg -> (Proto.W_error msg, None)
    | exception Check.Violation v ->
        (Proto.W_error (Format.asprintf "check violation: %a" Check.pp_violation v), None)
  in
  Proto.wreply_to_json { Proto.result; w_elapsed_s = Budget.now () -. t0; cert_blob }

(* --------------------------------------------------------------- clients *)

type client = {
  cid : int;
  cfd : Unix.file_descr;
  crd : Ipc.reader;
  mutable outq : string list;  (** FIFO of rendered frames; head partially sent *)
  mutable off : int;  (** bytes of the head frame already written *)
}

(* Read whatever is available on a nonblocking fd into [rd]. [`Closed
   got] reports EOF *and* whether bytes were buffered first: a client
   that writes its last frame and immediately closes delivers data and
   EOF in one batch, and the buffered frames must be processed before
   the fd is dropped. *)
let read_avail fd rd =
  let chunk = Bytes.create 8192 in
  let rec go got =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Closed got
    | n ->
        Ipc.feed rd chunk n;
        go true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go got
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if got then `Data else `Nothing
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Closed got
  in
  go false

(* ------------------------------------------------------------------ run *)

let run (config : config) =
  if config.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if config.queue_cap < 1 then invalid_arg "Daemon.run: queue_cap must be >= 1";
  if config.max_attempts < 1 then invalid_arg "Daemon.run: max_attempts must be >= 1";
  Ipc.ignore_sigpipe ();
  (match config.trace_path with Some _ -> Obs.Trace.start () | None -> ());
  let t_start = Budget.now () in
  let daemon_pid = Unix.getpid () in
  let elog = Option.map Exec.Eventlog.create config.event_log in
  let ev ?trace ?(fields = []) name =
    match elog with
    | Some t -> Exec.Eventlog.log t ~event:name ?trace_id:trace ~fields ()
    | None -> ()
  in
  let cache = Cache.open_ ?path:config.cache_path () in
  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let draining = ref false in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> draining := true)) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> draining := true)) in

  let clients : (int, client) Hashtbl.t = Hashtbl.create 16 in
  (* every page the daemon writes while a forked solve is alive gets
     copied, and the minor heap is the set it writes most: the daemon
     keeps a small one, and each child gets the normal size back on
     fresh pages *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 32_768 };
  (* a forked solve holds none of the daemon's sockets: an inherited
     client connection would keep it open past the daemon's close *)
  let at_fork () =
    Gc.set gc;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Hashtbl.iter (fun _ c -> try Unix.close c.cfd with Unix.Unix_error _ -> ()) clients
  in
  let pool =
    Pool.create ~at_fork
      {
        Pool.jobs = config.workers;
        wall_s = None;
        max_attempts = config.max_attempts;
        backoff = config.backoff;
        chaos = config.chaos;
      }
  in
  let next_jid = ref 0 in
  let next_cid = ref 0 in
  let hit_count = ref 0 in

  let queue_depth () = Pool.queued pool in
  let update_depth () = Metrics.set m_queue_depth (float_of_int (queue_depth ())) in

  (* the wall kill comes [kill_grace_s] past the solve budget (the budget
     clock starts in the child), so a job still running then is stuck,
     not slow *)
  let dispatch ?spent job =
    Pool.submit pool ~wall_s:(job.timeout_s +. config.kill_grace_s) ?spent
      ~id:(task_id ~jid:job.jid) job (solve_job config job);
    update_depth ()
  in

  let send_reply cid reply =
    match Hashtbl.find_opt clients cid with
    | None -> () (* client disconnected mid-solve; the verdict is still cached *)
    | Some c -> c.outq <- c.outq @ [ Ipc.frame_string (Proto.reply_to_json reply) ]
  in

  let drop_client c =
    Hashtbl.remove clients c.cid;
    try Unix.close c.cfd with Unix.Unix_error _ -> ()
  in

  let flush_client c =
    let rec go () =
      match c.outq with
      | [] -> ()
      | frame :: rest -> (
          let len = String.length frame in
          match Unix.write_substring c.cfd frame c.off (len - c.off) with
          | n ->
              c.off <- c.off + n;
              if c.off >= len then begin
                c.outq <- rest;
                c.off <- 0;
                go ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
              drop_client c)
    in
    go ()
  in

  let quarantine job detail =
    ev "quarantine" ~trace:job.trace ~fields:[ ("jid", Json.Num (float_of_int job.jid)) ];
    send_reply job.cid
      (Proto.Failed
         { failure = Proto.F_crash; elapsed_s = Budget.now () -. job.enqueued_at; detail })
  in

  let complete job ~attempts (wr : Proto.wreply) =
    let latency = Budget.now () -. job.enqueued_at in
    Metrics.observe m_latency latency;
    Metrics.wobserve w_latency latency;
    ev "complete" ~trace:job.trace
      ~fields:
        [
          ("jid", Json.Num (float_of_int job.jid));
          ( "result",
            Json.Str
              (match wr.Proto.result with
              | Proto.W_sat true -> "sat"
              | Proto.W_sat false -> "unsat"
              | Proto.W_timeout -> "timeout"
              | Proto.W_memout -> "memout"
              | Proto.W_error _ -> "error"
              | Proto.W_cert_failed _ -> "cert_failed") );
          ("elapsed_s", Json.Num wr.Proto.w_elapsed_s);
        ];
    Span.with_ "serve.complete" ~attrs:[ ("jid", Obs.Int job.jid) ] @@ fun () ->
    match wr.Proto.result with
    | Proto.W_sat sat -> (
        if config.certify then Metrics.incr m_cert_audits;
        match job.audit_of with
        | Some cached ->
            Metrics.incr m_audits;
            ev "cache_audit" ~trace:job.trace
              ~fields:[ ("key", Json.Str job.key.Dqbf.Canon.h1) ];
            let verdict_matches =
              match
                Check.audit_cache_hit ~level:config.solver.Hqs.check_level
                  ~key:job.key.Dqbf.Canon.h1 ~cached_sat:cached.Cache.sat ~fresh_sat:sat
              with
              | () -> true
              | exception Check.Violation _ -> false
            in
            if verdict_matches then
              send_reply job.cid
                (Proto.Verdict
                   {
                     sat;
                     elapsed_s = cached.Cache.elapsed_s;
                     cached = true;
                     audited = true;
                     cert = (if job.want_cert then wr.Proto.cert_blob else None);
                   })
            else begin
              Metrics.incr m_audit_failures;
              ev "cache_audit_failed" ~trace:job.trace
                ~fields:[ ("key", Json.Str job.key.Dqbf.Canon.h1) ];
              Cache.remove cache job.key;
              Span.event "serve.cache.audit_failed"
                ~attrs:[ ("key", Obs.Str job.key.Dqbf.Canon.h1) ]
                ();
              send_reply job.cid
                (Proto.Audit_failed { cached_sat = cached.Cache.sat; fresh_sat = sat })
            end
        | None ->
            Cache.store cache job.key ~sat ~elapsed_s:wr.Proto.w_elapsed_s;
            send_reply job.cid
              (Proto.Verdict
                 {
                   sat;
                   elapsed_s = wr.Proto.w_elapsed_s;
                   cached = false;
                   audited = job.escalate;
                   cert = (if job.want_cert then wr.Proto.cert_blob else None);
                 }))
    | Proto.W_timeout ->
        Metrics.incr m_timeouts;
        send_reply job.cid
          (Proto.Failed
             {
               failure = Proto.F_timeout;
               elapsed_s = wr.Proto.w_elapsed_s;
               detail = "solve budget expired";
             })
    | Proto.W_memout ->
        send_reply job.cid
          (Proto.Failed
             {
               failure = Proto.F_memout;
               elapsed_s = wr.Proto.w_elapsed_s;
               detail = "memory budget exceeded";
             })
    | Proto.W_error msg ->
        send_reply job.cid
          (Proto.Failed
             { failure = Proto.F_crash; elapsed_s = wr.Proto.w_elapsed_s; detail = msg })
    | Proto.W_cert_failed detail ->
        (* the child's certificate audit tripped: treat like a crash —
           tombstone the canonical-form cache entry (the verdict is now
           suspect), re-dispatch escalated, quarantine past the attempt
           budget *)
        Metrics.incr m_cert_audits;
        Metrics.incr m_cert_audit_failures;
        Cache.remove cache job.key;
        Span.event "serve.cert.audit_failed"
          ~attrs:[ ("key", Obs.Str job.key.Dqbf.Canon.h1); ("jid", Obs.Int job.jid) ]
          ();
        ev "cert_audit" ~trace:job.trace
          ~fields:
            [
              ("jid", Json.Num (float_of_int job.jid));
              ("key", Json.Str job.key.Dqbf.Canon.h1);
              ("attempts", Json.Num (float_of_int attempts));
              ("detail", Json.Str detail);
            ];
        if attempts >= config.max_attempts then
          quarantine job
            (Printf.sprintf "certificate audit failed (%d attempts): %s" attempts detail)
        else begin
          ev "retry" ~trace:job.trace
            ~fields:[ ("jid", Json.Num (float_of_int job.jid)); ("escalate", Json.Bool true) ];
          dispatch ~spent:attempts { job with escalate = true }
        end
  in

  (* the pool's report on one attempt or one finished job *)
  let on_event = function
    | Pool.Crashed (job, attempt, detail) ->
        Metrics.incr m_crashes;
        Span.event "serve.worker.crash"
          ~attrs:[ ("jid", Obs.Int job.jid); ("attempt", Obs.Int attempt) ]
          ();
        ev "crash" ~trace:job.trace
          ~fields:
            [
              ("jid", Json.Num (float_of_int job.jid));
              ("attempts", Json.Num (float_of_int attempt));
              ("detail", Json.Str detail);
            ];
        (* the pool forks the retry ahead of newly admitted work *)
        if attempt < config.max_attempts then
          ev "retry" ~trace:job.trace ~fields:[ ("jid", Json.Num (float_of_int job.jid)) ]
    | Pool.Finished (job, (r : Pool.result)) -> (
        match r.status with
        | Pool.Value v -> (
            match Proto.wreply_of_json v with
            | Ok wr -> complete job ~attempts:r.attempts wr
            | Error msg -> quarantine job ("protocol: " ^ msg))
        | Pool.Memout elapsed ->
            (* the child's allocator failed outside the solve (a
               shell's [ulimit -v], say) *)
            complete job ~attempts:r.attempts
              { Proto.result = Proto.W_memout; w_elapsed_s = elapsed; cert_blob = None }
        | Pool.Timeout _ ->
            (* the wall kill: deadline plus grace passed without a result
               (no retry: the instance earned its kill) *)
            Metrics.incr m_timeouts;
            Span.event "serve.worker.wall_kill" ~attrs:[ ("jid", Obs.Int job.jid) ] ();
            ev "timeout" ~trace:job.trace ~fields:[ ("jid", Json.Num (float_of_int job.jid)) ];
            send_reply job.cid
              (Proto.Failed
                 {
                   failure = Proto.F_timeout;
                   elapsed_s = Budget.now () -. job.enqueued_at;
                   detail = "deadline expired; worker killed";
                 })
        | Pool.Crash _ ->
            quarantine job (Printf.sprintf "worker crashed (%d attempts)" r.attempts))
  in

  let admit cid (req : Proto.request) =
    Span.with_ "serve.request" @@ fun () ->
    match req with
    | Proto.Ping -> send_reply cid Proto.Pong
    | Proto.Health ->
        let busy = Pool.running pool in
        send_reply cid
          (Proto.Health_reply
             {
               Proto.live_workers = config.workers;
               h_queue_depth = queue_depth ();
               in_flight = busy;
               draining = !draining;
               uptime_s = Budget.now () -. t_start;
               states = List.init config.workers (fun i -> if i < busy then "busy" else "idle");
               lat_n = Metrics.window_count w_latency;
               lat_p50 = Metrics.quantile w_latency 0.5;
               lat_p95 = Metrics.quantile w_latency 0.95;
               lat_p99 = Metrics.quantile w_latency 0.99;
               h_metrics = Metrics.to_assoc (Metrics.snapshot ());
             })
    | Proto.Solve { text; timeout_s; sleep_s; want_cert } -> (
        Metrics.incr m_requests;
        if !draining then send_reply cid Proto.Draining
        else
          let timeout_s =
            Float.min config.max_timeout_s
              (match timeout_s with
              | Some s when s > 0. -> s
              | Some _ | None -> config.default_timeout_s)
          in
          match Dqbf.Pcnf.parse_string text with
          | exception Failure msg -> send_reply cid (Proto.Invalid msg)
          | pcnf -> (
              match Dqbf.Pcnf.validate pcnf with
              | Error msg -> send_reply cid (Proto.Invalid msg)
              | Ok () -> (
                  let canon = Dqbf.Canon.canonicalize pcnf in
                  let enqueue audit_of =
                    incr next_jid;
                    let trace = Printf.sprintf "serve-%d-%d" daemon_pid !next_jid in
                    ev "admit" ~trace
                      ~fields:
                        ([
                           ("jid", Json.Num (float_of_int !next_jid));
                           ("queue_depth", Json.Num (float_of_int (queue_depth () + 1)));
                         ]
                        @ if audit_of = None then [] else [ ("audit", Json.Bool true) ]);
                    dispatch
                      {
                        jid = !next_jid;
                        cid;
                        key = canon.Dqbf.Canon.key;
                        pcnf;
                        text;
                        timeout_s;
                        sleep_s;
                        enqueued_at = Budget.now ();
                        trace;
                        audit_of;
                        want_cert = want_cert && config.certify;
                        escalate = false;
                      }
                  in
                  match Cache.find cache canon.Dqbf.Canon.key with
                  | Some entry ->
                      incr hit_count;
                      Metrics.incr m_cache_hits;
                      let audit =
                        config.solver.Hqs.check_level = Check.Full
                        && config.audit_period > 0
                        && !hit_count mod config.audit_period = 0
                        && queue_depth () < config.queue_cap
                      in
                      if audit then enqueue (Some entry)
                      else
                        send_reply cid
                          (Proto.Verdict
                             {
                               sat = entry.Cache.sat;
                               elapsed_s = entry.Cache.elapsed_s;
                               cached = true;
                               audited = false;
                               cert = None;
                             })
                  | None ->
                      Metrics.incr m_cache_misses;
                      if queue_depth () >= config.queue_cap then begin
                        Metrics.incr m_shed;
                        Span.event "serve.shed" ();
                        ev "shed"
                          ~fields:[ ("queue_depth", Json.Num (float_of_int (queue_depth ()))) ];
                        send_reply cid (Proto.Overloaded { queue_depth = queue_depth () })
                      end
                      else enqueue None)))
  in

  let handle_client_input c =
    let rec frames () =
      match Ipc.next_frame c.crd with
      | None -> ()
      | Some (Error msg) ->
          send_reply c.cid (Proto.Invalid ("torn frame: " ^ msg));
          flush_client c;
          drop_client c
      | Some (Ok j) ->
          (match Proto.request_of_json j with
          | Ok req -> admit c.cid req
          | Error msg -> send_reply c.cid (Proto.Invalid msg));
          if Hashtbl.mem clients c.cid then frames ()
    in
    match read_avail c.cfd c.crd with
    | `Nothing -> ()
    | `Data -> frames ()
    | `Closed got ->
        (* a client that sent its request and hung up: admit the buffered
           frames first (the verdict is still computed and cached), then
           drop the connection *)
        if got then frames ();
        if Hashtbl.mem clients c.cid then drop_client c
  in

  ev "start"
    ~fields:
      [
        ("workers", Json.Num (float_of_int config.workers));
        ("queue_cap", Json.Num (float_of_int config.queue_cap));
      ];
  let drain_logged = ref false in

  let accept_clients () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          incr next_cid;
          Hashtbl.replace clients !next_cid
            { cid = !next_cid; cfd = fd; crd = Ipc.reader (); outq = []; off = 0 };
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
    in
    go ()
  in

  let all_flushed () = Hashtbl.fold (fun _ c acc -> acc && c.outq = []) clients true in
  let finished () = !draining && Pool.idle pool && all_flushed () in

  while not (finished ()) do
    if !draining && not !drain_logged then begin
      drain_logged := true;
      ev "drain" ~fields:[ ("queue_depth", Json.Num (float_of_int (queue_depth ()))) ]
    end;
    (* the OCaml-level SIGTERM handler only runs at a safe point after
       select returns, so the idle timeout bounds drain responsiveness —
       keep it short *)
    let rfds = listen_fd :: Hashtbl.fold (fun _ c acc -> c.cfd :: acc) clients [] in
    let wfds = Hashtbl.fold (fun _ c acc -> if c.outq = [] then acc else c.cfd :: acc) clients [] in
    let events, readable, writable =
      Pool.wait pool ~read:rfds ~write:wfds (if !draining then 0.05 else 0.1)
    in
    update_depth ();
    List.iter on_event events;
    if List.memq listen_fd readable then accept_clients ();
    let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) clients [] in
    List.iter
      (fun c -> if Hashtbl.mem clients c.cid && List.memq c.cfd readable then handle_client_input c)
      snapshot;
    List.iter
      (fun c ->
        if Hashtbl.mem clients c.cid && (List.memq c.cfd writable || c.outq <> []) then
          flush_client c)
      snapshot
  done;

  (* graceful shutdown: the pool is idle; close everything else and
     remove the socket path *)
  Hashtbl.iter (fun _ c -> try Unix.close c.cfd with Unix.Unix_error _ -> ()) clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove config.socket_path with Sys_error _ -> ());
  Cache.close cache;
  ev "stop" ~fields:[ ("uptime_s", Json.Num (Budget.now () -. t_start)) ];
  (match elog with Some t -> Exec.Eventlog.close t | None -> ());
  (match config.trace_path with
  | Some path ->
      List.iter
        (fun { Metrics.name; kind = _; v } ->
          if String.length name >= 6 && String.sub name 0 6 = "serve." then
            Span.event "serve.metric" ~attrs:[ ("name", Obs.Str name); ("value", Obs.Float v) ] ())
        (Metrics.snapshot ());
      Obs.Trace.write_chrome_json path;
      Obs.Trace.reset ()
  | None -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Gc.set gc
