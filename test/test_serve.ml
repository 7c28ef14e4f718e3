(* End-to-end tests of the serve daemon: each case forks a real daemon
   (Serve.Daemon.run in a child process), drives it over its Unix-domain
   socket, then SIGTERMs it and asserts a clean drained exit. The
   robustness surface under test: structured replies for crash/timeout/
   overload, chaos-killed workers, client disconnects, cache hits and
   audits, and graceful drain. *)

module D = Serve.Daemon
module P = Serve.Proto
module C = Serve.Client

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sat_text = "p cnf 2 2\na 1 0\nd 2 1 0\n1 -2 0\n-1 2 0\n"
let unsat_text = "p cnf 2 2\na 1 0\nd 2 0\n1 -2 0\n-1 2 0\n"

(* same instance as [sat_text] under the renaming 1<->2: must hit the
   canonical-form cache *)
let sat_renamed_text = "p cnf 2 2\na 2 0\nd 1 2 0\n-2 1 0\n2 -1 0\n"

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/hqs_serve_test_%d_%d.sock" (Unix.getpid ()) !n

(* fast test pool: tight grace and backoff so failure cases resolve
   quickly *)
let test_config ?(workers = 2) ?(queue_cap = 16) socket_path =
  {
    (D.default ~socket_path) with
    D.workers;
    queue_cap;
    default_timeout_s = 10.;
    max_timeout_s = 20.;
    kill_grace_s = 0.5;
    backoff = { Exec.Backoff.base_s = 0.01; max_s = 0.05 };
  }

let wait_ready socket =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon did not come up";
    match C.roundtrip ~socket P.Ping with
    | Ok P.Pong -> ()
    | Ok _ | Error _ ->
        Unix.sleepf 0.05;
        go (n - 1)
  in
  go 100

(* fork a daemon, wait until it answers pings, run [f], SIGTERM it and
   assert the drained exit status *)
let with_daemon cfg f =
  let pid = Unix.fork () in
  if pid = 0 then begin
    D.run cfg;
    Unix._exit 0
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
        if Sys.file_exists cfg.D.socket_path then Sys.remove cfg.D.socket_path)
      (fun () ->
        wait_ready cfg.D.socket_path;
        let r = f () in
        Unix.kill pid Sys.sigterm;
        let _, st = Unix.waitpid [] pid in
        check "daemon drained and exited 0" true (st = Unix.WEXITED 0);
        r)

let solve ?timeout_s ?(sleep_s = 0.) ?(want_cert = false) ~socket text =
  C.roundtrip ~socket (P.Solve { text; timeout_s; sleep_s; want_cert })

(* the daemon's one status reply, as (workers, queue_depth, metrics) *)
let stats ~socket =
  match C.roundtrip ~socket P.Health with
  | Ok (P.Health_reply h) -> (h.P.live_workers, h.P.h_queue_depth, h.P.h_metrics)
  | Ok _ -> Alcotest.fail "stats: unexpected reply"
  | Error e -> Alcotest.failf "stats: %s" e

let metric ~socket name =
  let _, _, metrics = stats ~socket in
  match List.assoc_opt name metrics with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing from stats" name

(* raw connection helpers, for tests that need several requests in
   flight at once from a single-threaded client *)
let send_raw fd req = Exec.Ipc.write_frame fd (P.request_to_json req)

let recv_raw fd =
  match Exec.Ipc.read_frame fd with
  | Exec.Ipc.Frame j -> (
      match P.reply_of_json j with
      | Ok r -> r
      | Error e -> Alcotest.failf "bad reply: %s" e)
  | Exec.Ipc.Eof -> Alcotest.fail "connection closed before reply"
  | Exec.Ipc.Malformed e -> Alcotest.failf "torn reply: %s" e

let reply_str = function
  | Ok r -> Obs.Json.render (P.reply_to_json r)
  | Error e -> "transport error: " ^ e

(* metrics that trail the reply (respawns happen after the retry's
   verdict is sent): poll briefly instead of racing the daemon *)
let eventually_metric ~socket name pred =
  let rec go n =
    if pred (metric ~socket name) then true
    else if n = 0 then false
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 40

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

(* ------------------------------------------------------------ basic solve *)

let test_basic_verdicts () =
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      (match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; cached = false; _ }) -> ()
      | Ok _ -> Alcotest.fail "sat: unexpected reply"
      | Error e -> Alcotest.failf "sat: %s" e);
      (match solve ~socket unsat_text with
      | Ok (P.Verdict { sat = false; cached = false; _ }) -> ()
      | _ -> Alcotest.fail "unsat: unexpected reply");
      (match solve ~socket "p cnf garbage\n" with
      | Ok (P.Invalid _) -> ()
      | _ -> Alcotest.fail "garbage: expected Invalid");
      check "requests counted" true (metric ~socket "serve.requests" >= 2.))

(* ------------------------------------------------------------------ cache *)

let test_cache_hit_same_verdict () =
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      let v1 =
        match solve ~socket sat_text with
        | Ok (P.Verdict { sat; cached = false; _ }) -> sat
        | _ -> Alcotest.fail "first solve failed"
      in
      (* byte-identical duplicate *)
      (match solve ~socket sat_text with
      | Ok (P.Verdict { sat; cached = true; _ }) ->
          check "duplicate gets the same verdict" true (sat = v1)
      | _ -> Alcotest.fail "duplicate was not a cache hit");
      (* renamed instance: hits through the canonicalizer *)
      (match solve ~socket sat_renamed_text with
      | Ok (P.Verdict { sat; cached = true; _ }) ->
          check "renamed instance gets the same verdict" true (sat = v1)
      | _ -> Alcotest.fail "renamed instance was not a cache hit");
      check "hits counted" true (metric ~socket "serve.cache_hits" >= 2.))

let test_cache_persists_across_restart () =
  let cache = Filename.temp_file "serve_cache" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache then Sys.remove cache)
    (fun () ->
      let socket1 = fresh_socket () in
      with_daemon
        { (test_config socket1) with D.cache_path = Some cache }
        (fun () ->
          match solve ~socket:socket1 unsat_text with
          | Ok (P.Verdict { sat = false; cached = false; _ }) -> ()
          | _ -> Alcotest.fail "first daemon: fresh solve expected");
      let socket2 = fresh_socket () in
      with_daemon
        { (test_config socket2) with D.cache_path = Some cache }
        (fun () ->
          match solve ~socket:socket2 unsat_text with
          | Ok (P.Verdict { sat = false; cached = true; _ }) -> ()
          | _ -> Alcotest.fail "second daemon: preloaded cache hit expected"))

(* a daemon killed mid-append leaves a torn last line: the reload drops
   it, keeps the entries before it and says so on a counter *)
let test_cache_torn_line_counted () =
  let cache = Filename.temp_file "serve_cache" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache then Sys.remove cache)
    (fun () ->
      let key =
        (Dqbf.Canon.canonicalize (Dqbf.Pcnf.parse_string unsat_text)).Dqbf.Canon.key
      in
      let c = Serve.Cache.open_ ~path:cache () in
      Serve.Cache.store c key ~sat:false ~elapsed_s:0.1;
      Serve.Cache.close c;
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 cache (fun oc ->
          Out_channel.output_string oc "{\"task_id\":\"torn");
      let socket = fresh_socket () in
      with_daemon
        { (test_config socket) with D.cache_path = Some cache }
        (fun () ->
          Alcotest.(check (float 0.)) "one torn line dropped" 1.
            (metric ~socket "serve.cache_dropped");
          match solve ~socket unsat_text with
          | Ok (P.Verdict { sat = false; cached = true; _ }) -> ()
          | _ -> Alcotest.fail "the entry before the torn line was lost"))

(* poison the persistent cache with a wrong verdict, then let the Full-
   check audit catch it: the sampled re-solve must disagree, evict the
   entry, and tell the client; the next request must be a fresh solve *)
let test_audit_catches_poisoned_cache () =
  let cache = Filename.temp_file "serve_cache" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists cache then Sys.remove cache)
    (fun () ->
      let key =
        (Dqbf.Canon.canonicalize (Dqbf.Pcnf.parse_string sat_text)).Dqbf.Canon.key
      in
      let c = Serve.Cache.open_ ~path:cache () in
      Serve.Cache.store c key ~sat:false ~elapsed_s:0.1;
      Serve.Cache.close c;
      let socket = fresh_socket () in
      with_daemon
        {
          (test_config socket) with
          D.cache_path = Some cache;
          solver = { Hqs.default_config with Hqs.check_level = Check.Full };
          audit_period = 1;
        }
        (fun () ->
          (match solve ~socket sat_text with
          | Ok (P.Audit_failed { cached_sat = false; fresh_sat = true }) -> ()
          | Ok (P.Verdict { cached; _ }) ->
              Alcotest.failf "poisoned entry served (cached=%b)" cached
          | _ -> Alcotest.fail "expected Audit_failed");
          check "audit failure counted" true
            (metric ~socket "serve.cache_audit_failures" >= 1.);
          (* the poisoned entry is gone: fresh solve, correct verdict *)
          match solve ~socket sat_text with
          | Ok (P.Verdict { sat = true; cached = false; _ }) -> ()
          | _ -> Alcotest.fail "expected fresh correct solve after eviction"))

(* --------------------------------------------------------------- deadlines *)

let test_deadline_expiry () =
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      (* worker-side budget expiry: the sleep hook burns the budget *)
      (match solve ~socket ~timeout_s:0.2 ~sleep_s:0.6 sat_text with
      | Ok (P.Failed { failure = P.F_timeout; _ }) -> ()
      | _ -> Alcotest.fail "expected structured timeout");
      check "timeout counted" true (metric ~socket "serve.timeouts" >= 1.);
      (* the pool still works afterwards *)
      match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; _ }) -> ()
      | _ -> Alcotest.fail "pool dead after timeout")

let test_stuck_worker_killed () =
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      (* sleep far past deadline + grace: the daemon must SIGKILL the
         worker and still hand the client a structured timeout *)
      let t0 = Hqs_util.Budget.now () in
      (match solve ~socket ~timeout_s:0.2 ~sleep_s:30. sat_text with
      | Ok (P.Failed { failure = P.F_timeout; detail; _ }) ->
          check "reply names the kill" true (contains detail "killed")
      | _ -> Alcotest.fail "expected timeout reply for stuck worker");
      check "reply came at deadline+grace, not after the sleep" true
        (Hqs_util.Budget.now () -. t0 < 5.);
      (* the respawned pool solves again *)
      match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; _ }) -> ()
      | _ -> Alcotest.fail "pool dead after wall kill")

(* ------------------------------------------------------------------ chaos *)

let chaos_config ?(attempts = [ 1 ]) socket =
  (* the first solve request in a fresh daemon gets jid 1 *)
  let task = D.task_id ~jid:1 in
  let points = List.map (fun a -> Hqs_util.Chaos.worker_kill_point ~task ~attempt:a) attempts in
  { (test_config socket) with D.chaos = Hqs_util.Chaos.arm points }

let test_chaos_kill_recovers () =
  let socket = fresh_socket () in
  with_daemon (chaos_config ~attempts:[ 1 ] socket) (fun () ->
      (* attempt 1 is chaos-killed mid-request; the retry must succeed *)
      (match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; _ }) -> ()
      | _ -> Alcotest.fail "expected verdict after chaos retry");
      check "crash counted" true (metric ~socket "serve.worker_crashes" >= 1.))

let test_chaos_kill_exhausts_attempts () =
  let socket = fresh_socket () in
  with_daemon (chaos_config ~attempts:[ 1; 2; 3 ] socket) (fun () ->
      (* every attempt dies: the client still gets a structured reply *)
      (match solve ~socket sat_text with
      | Ok (P.Failed { failure = P.F_crash; detail; _ }) ->
          check "detail mentions attempts" true (contains detail "attempt")
      | _ -> Alcotest.fail "expected structured crash reply");
      (* the pool recovered: a fresh (jid 2) solve passes *)
      match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; _ }) -> ()
      | _ -> Alcotest.fail "pool dead after crash-out")

(* -------------------------------------------------------------- admission *)

let test_queue_overflow_sheds () =
  let socket = fresh_socket () in
  with_daemon
    (test_config ~workers:1 ~queue_cap:1 socket)
    (fun () ->
      (* conn1 occupies the single worker; conn2 fills the queue; a
         third solve must be shed with an explicit Overloaded reply *)
      let fd1 = C.connect socket in
      let fd2 = C.connect socket in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd1 with Unix.Unix_error _ -> ());
          try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          send_raw fd1 (P.Solve { text = sat_text; timeout_s = Some 5.; sleep_s = 0.5; want_cert = false });
          (* let the daemon dispatch conn1's job before conn2's arrives,
             otherwise both land in one select batch and conn2 is the
             one shed *)
          Unix.sleepf 0.1;
          send_raw fd2
            (P.Solve { text = unsat_text; timeout_s = Some 5.; sleep_s = 0.3; want_cert = false });
          Unix.sleepf 0.1;
          (match solve ~socket sat_text with
          | Ok (P.Overloaded { queue_depth }) ->
              check "shed reply reports depth" true (queue_depth >= 1)
          | r -> Alcotest.failf "expected Overloaded, got %s" (reply_str r));
          check "shed counted" true (metric ~socket "serve.shed" >= 1.);
          (* both admitted jobs still complete correctly *)
          (match recv_raw fd1 with
          | P.Verdict { sat = true; _ } -> ()
          | _ -> Alcotest.fail "conn1 verdict lost");
          match recv_raw fd2 with
          | P.Verdict { sat = false; _ } -> ()
          | _ -> Alcotest.fail "conn2 verdict lost"))

let test_client_disconnect_mid_reply () =
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      (* send a solve and vanish before the reply; the daemon must
         survive, finish the job, and cache the verdict *)
      let fd = C.connect socket in
      send_raw fd (P.Solve { text = sat_text; timeout_s = Some 5.; sleep_s = 0.2; want_cert = false });
      Unix.close fd;
      Unix.sleepf 0.5;
      (match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; cached; _ }) ->
          check "abandoned job's verdict was cached" true cached
      | r -> Alcotest.failf "daemon unhealthy after client disconnect: %s" (reply_str r));
      check "daemon still answers pings" true
        (match C.roundtrip ~socket P.Ping with Ok P.Pong -> true | _ -> false))

(* a request far larger than the socket buffers: the daemon reads it
   incrementally, and the forked solve works on the formula parsed at
   admission, so the text never crosses a second socket. Comment lines
   carry the text past 1 MB; the formula stays small because canonical
   labelling at admission grows superlinearly with it (minutes on
   lookahead_n64) *)
let test_large_instance () =
  let inst = Circuit.Families.bitcell ~cells:56 ~boxes:3 ~fault:true in
  let padding =
    String.concat ""
      (List.init 16_000 (fun i -> Printf.sprintf "c padding %06d %s\n" i (String.make 50 'x')))
  in
  let text = padding ^ Dqbf.Pcnf.to_string inst.Circuit.Families.pcnf in
  check "instance text is at least 1 MB" true (String.length text >= 1_000_000);
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      (match solve ~socket text with
      | Ok (P.Verdict { sat = false; cached = false; _ }) -> ()
      | r -> Alcotest.failf "large instance: expected UNSAT verdict, got %s" (reply_str r));
      check "miss counted" true
        (eventually_metric ~socket "serve.cache_misses" (fun v -> v >= 1.)))

(* [mem_limit_mb] is the solve's heap budget, which a small solve stays
   far inside; nothing caps the worker's address space, which starts as
   a copy of the daemon's *)
let test_heap_budget_verdict () =
  let inst = Circuit.Families.pec_xor ~length:4 ~boxes:1 ~fault:false in
  let socket = fresh_socket () in
  with_daemon
    { (test_config socket) with D.mem_limit_mb = Some 100 }
    (fun () ->
      match solve ~socket (Dqbf.Pcnf.to_string inst.Circuit.Families.pcnf) with
      | Ok (P.Verdict { sat = true; _ }) -> ()
      | r -> Alcotest.failf "expected a SAT verdict, got %s" (reply_str r))

(* ------------------------------------------------------------------ drain *)

let test_sigterm_drain_finishes_inflight () =
  let socket = fresh_socket () in
  let cfg = test_config socket in
  let pid = Unix.fork () in
  if pid = 0 then begin
    D.run cfg;
    Unix._exit 0
  end
  else
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
        if Sys.file_exists socket then Sys.remove socket)
      (fun () ->
        wait_ready socket;
        (* put a job in flight, then SIGTERM while it runs *)
        let fd = C.connect socket in
        send_raw fd (P.Solve { text = sat_text; timeout_s = Some 5.; sleep_s = 0.4; want_cert = false });
        Unix.sleepf 0.1;
        Unix.kill pid Sys.sigterm;
        Unix.sleepf 0.05;
        (* new solves are refused while draining (the daemon may already
           have closed the listen socket, which is equally acceptable) *)
        (match solve ~socket sat_text with
        | Ok P.Draining | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected Draining refusal during drain");
        (* the in-flight job still completes with its verdict *)
        (match recv_raw fd with
        | P.Verdict { sat = true; _ } -> ()
        | _ -> Alcotest.fail "in-flight job lost during drain");
        Unix.close fd;
        let _, st = Unix.waitpid [] pid in
        check "drained exit 0" true (st = Unix.WEXITED 0);
        check "socket removed on exit" false (Sys.file_exists socket))

(* ---------------------------------------------------------------- metrics *)

let test_serve_metrics_present () =
  let socket = fresh_socket () in
  with_daemon (test_config socket) (fun () ->
      ignore (solve ~socket sat_text);
      ignore (solve ~socket sat_text);
      ignore (solve ~socket ~timeout_s:0.1 ~sleep_s:0.4 unsat_text);
      let workers, _, metrics = stats ~socket in
      check_int "stats reports the pool size" 2 workers;
      let names = List.map fst metrics in
      List.iter
        (fun n ->
          check
            (Printf.sprintf "metric %s present" n)
            true
            (List.exists (String.equal n) names))
        [
          "serve.requests";
          "serve.queue_depth";
          "serve.shed";
          "serve.worker_crashes";
          "serve.cache_hits";
          "serve.cache_misses";
          "serve.timeouts";
          "serve.request_latency_s.count";
          "serve.request_latency_s.sum";
        ];
      check "latency histogram saw the requests" true
        (metric ~socket "serve.request_latency_s.count" >= 2.))

(* ---------------------------------------------------------- certification *)

let certify_config ?(check_level = Check.Cheap) socket =
  {
    (test_config socket) with
    D.certify = true;
    solver = { Hqs.default_config with Hqs.check_level };
  }

let test_certified_solve_ships_artifact () =
  let socket = fresh_socket () in
  with_daemon (certify_config socket) (fun () ->
      (match solve ~socket ~want_cert:true sat_text with
      | Ok (P.Verdict { sat = true; cert = Some blob; _ }) -> (
          check "artifact is a SAT certificate" true (contains blob "s cert SAT");
          (* the shipped blob is independently parsable and checks out
             against the exact instance bytes the daemon solved *)
          match Cert.parse blob with
          | Ok c -> (
              match Cert.check ~instance_text:sat_text (Dqbf.Pcnf.parse_string sat_text) c with
              | Ok () -> ()
              | Error e -> Alcotest.failf "shipped certificate rejected: %s" e)
          | Error e -> Alcotest.failf "shipped certificate unparsable: %s" e)
      | r -> Alcotest.failf "expected a certificate-carrying verdict, got %s" (reply_str r));
      (* a client that does not ask gets no blob *)
      (match solve ~socket unsat_text with
      | Ok (P.Verdict { sat = false; cert = None; _ }) -> ()
      | r -> Alcotest.failf "unsolicited certificate: %s" (reply_str r));
      check "audits counted" true (metric ~socket "serve.cert_audits" >= 2.))

(* the recovery drill: chaos corrupts jid 1's certificate before the
   in-worker audit; the daemon must tombstone the cache entry, re-solve
   escalated, and still hand the client a verified artifact *)
let test_cert_poison_recovers () =
  let socket = fresh_socket () in
  let cfg =
    {
      (certify_config socket) with
      D.chaos = Hqs_util.Chaos.arm [ D.cert_point ~jid:1 ~attempt:1 ];
    }
  in
  with_daemon cfg (fun () ->
      (match solve ~socket ~want_cert:true sat_text with
      | Ok (P.Verdict { sat = true; audited = true; cert = Some blob; _ }) ->
          check "recovered artifact is a SAT certificate" true (contains blob "s cert SAT")
      | r -> Alcotest.failf "expected recovered certified verdict, got %s" (reply_str r));
      check "cert audit failure counted" true
        (metric ~socket "serve.cert_audit_failed" >= 1.);
      (* the poisoned attempt must not have leaked a cache entry: the
         recovery re-solve stored the good verdict, so this hits *)
      match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; cached = true; _ }) -> ()
      | r -> Alcotest.failf "expected cache hit after recovery, got %s" (reply_str r))

(* poison every attempt: the job must be quarantined with a structured
   crash reply instead of looping forever *)
let test_cert_poison_exhausts_attempts () =
  let socket = fresh_socket () in
  let points = List.map (fun a -> D.cert_point ~jid:1 ~attempt:a) [ 1; 2; 3 ] in
  let cfg =
    {
      (certify_config socket) with
      D.chaos = Hqs_util.Chaos.arm points;
    }
  in
  with_daemon cfg (fun () ->
      (match solve ~socket ~want_cert:true sat_text with
      | Ok (P.Failed { failure = P.F_crash; detail; _ }) ->
          check "detail names the audit" true (contains detail "certificate audit")
      | r -> Alcotest.failf "expected quarantine crash reply, got %s" (reply_str r));
      (* the pool is healthy and the tombstoned key re-solves cleanly *)
      match solve ~socket sat_text with
      | Ok (P.Verdict { sat = true; cached = false; _ }) -> ()
      | r -> Alcotest.failf "pool unhealthy after quarantine: %s" (reply_str r))

(* ------------------------------------------------- hqs query exit codes *)

(* drive the installed CLI against a forked daemon and assert the full
   documented exit-code surface (10/20/124/125/5/75/3/2, certificate
   round trip); tests run from _build/default/test, so the binaries sit
   one directory up *)
let cli = "../bin/hqs_cli.exe"
let certcheck = "../bin/certcheck.exe"

let write_tmp tag text =
  let path = Filename.temp_file tag ".dqdimacs" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  path

let run_cmd cmd =
  match Unix.system (cmd ^ " >/dev/null 2>&1") with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n

let query_code ~socket args = run_cmd (Printf.sprintf "%s query --socket %s %s" cli socket args)

let test_query_exit_codes_verdicts () =
  let sat_file = write_tmp "serve_sat" sat_text in
  let unsat_file = write_tmp "serve_unsat" unsat_text in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove sat_file;
      Sys.remove unsat_file)
    (fun () ->
      let socket = fresh_socket () in
      with_daemon (test_config socket) (fun () ->
          (* timeout first: once the verdict is cached, the sleep hook is
             short-circuited by the cache hit *)
          check_int "timeout exits 124" 124
            (query_code ~socket (Printf.sprintf "-t 0.2 --sleep 0.6 %s" sat_file));
          check_int "SAT exits 10" 10 (query_code ~socket sat_file);
          check_int "UNSAT exits 20" 20 (query_code ~socket unsat_file);
          check_int "ping exits 0" 0 (query_code ~socket "--ping");
          check_int "health exits 0" 0 (query_code ~socket "--health"));
      check_int "unreachable daemon exits 2" 2 (query_code ~socket:"/tmp/no_such.sock" "--ping"))

let test_query_exit_code_memout () =
  (* an instance that genuinely needs AIG construction, so a tiny node
     budget trips the heap governor (the 2-variable smoke instances are
     dispatched by preprocessing without building a single node) *)
  let inst = Circuit.Families.adder ~bits:4 ~boxes:2 ~fault:false in
  let hard_file = write_tmp "serve_memout" (Dqbf.Pcnf.to_string inst.Circuit.Families.pcnf) in
  Fun.protect
    ~finally:(fun () -> Sys.remove hard_file)
    (fun () ->
      let socket = fresh_socket () in
      let cfg =
        {
          (test_config socket) with
          D.solver = { Hqs.default_config with Hqs.node_limit = Some 64 };
        }
      in
      with_daemon cfg (fun () ->
          check_int "memout exits 125" 125 (query_code ~socket hard_file)))

let test_query_exit_code_crash () =
  let sat_file = write_tmp "serve_sat" sat_text in
  Fun.protect
    ~finally:(fun () -> Sys.remove sat_file)
    (fun () ->
      let socket = fresh_socket () in
      with_daemon
        (chaos_config ~attempts:[ 1; 2; 3 ] socket)
        (fun () -> check_int "crash-out exits 5" 5 (query_code ~socket sat_file)))

let test_query_exit_code_overloaded () =
  let sat_file = write_tmp "serve_sat" sat_text in
  Fun.protect
    ~finally:(fun () -> Sys.remove sat_file)
    (fun () ->
      let socket = fresh_socket () in
      with_daemon
        (test_config ~workers:1 ~queue_cap:1 socket)
        (fun () ->
          let fd1 = C.connect socket in
          let fd2 = C.connect socket in
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close fd1 with Unix.Unix_error _ -> ());
              try Unix.close fd2 with Unix.Unix_error _ -> ())
            (fun () ->
              send_raw fd1
                (P.Solve
                   { text = sat_text; timeout_s = Some 5.; sleep_s = 0.5; want_cert = false });
              Unix.sleepf 0.1;
              send_raw fd2
                (P.Solve
                   { text = unsat_text; timeout_s = Some 5.; sleep_s = 0.3; want_cert = false });
              Unix.sleepf 0.1;
              check_int "overloaded exits 75" 75 (query_code ~socket sat_file);
              (* drain both admitted jobs before the daemon is stopped *)
              ignore (recv_raw fd1);
              ignore (recv_raw fd2))))

let test_query_exit_code_audit_failure () =
  let sat_file = write_tmp "serve_sat" sat_text in
  let cache = Filename.temp_file "serve_cache" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove sat_file;
      if Sys.file_exists cache then Sys.remove cache)
    (fun () ->
      let key =
        (Dqbf.Canon.canonicalize (Dqbf.Pcnf.parse_string sat_text)).Dqbf.Canon.key
      in
      let c = Serve.Cache.open_ ~path:cache () in
      Serve.Cache.store c key ~sat:false ~elapsed_s:0.1;
      Serve.Cache.close c;
      let socket = fresh_socket () in
      with_daemon
        {
          (test_config socket) with
          D.cache_path = Some cache;
          solver = { Hqs.default_config with Hqs.check_level = Check.Full };
          audit_period = 1;
        }
        (fun () -> check_int "cache-audit failure exits 3" 3 (query_code ~socket sat_file)))

(* the full external loop: query --certify writes the shipped artifact,
   and the isolated verifier accepts it against the instance bytes *)
let test_query_certify_roundtrip () =
  let sat_file = write_tmp "serve_sat" sat_text in
  let cert_file = Filename.temp_file "serve_cert" ".cert" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove sat_file;
      if Sys.file_exists cert_file then Sys.remove cert_file)
    (fun () ->
      let socket = fresh_socket () in
      with_daemon (certify_config socket) (fun () ->
          check_int "certified query exits 10" 10
            (query_code ~socket (Printf.sprintf "--certify %s %s" cert_file sat_file));
          check "artifact written" true (Sys.file_exists cert_file);
          check_int "external verifier accepts" 0
            (run_cmd (Printf.sprintf "%s %s %s" certcheck sat_file cert_file));
          (* corrupting the artifact must flip the verifier to `refuted' *)
          let blob = In_channel.with_open_bin cert_file In_channel.input_all in
          let bad = Str.replace_first (Str.regexp "h ") "h f" blob in
          Out_channel.with_open_bin cert_file (fun oc -> Out_channel.output_string oc bad);
          check "corrupted artifact rejected" true
            (run_cmd (Printf.sprintf "%s %s %s" certcheck sat_file cert_file) <> 0)))

let () =
  Exec.Ipc.ignore_sigpipe ();
  Alcotest.run "serve"
    [
      ( "solve",
        [
          Alcotest.test_case "basic verdicts" `Quick test_basic_verdicts;
          Alcotest.test_case "cache hit same verdict" `Quick test_cache_hit_same_verdict;
          Alcotest.test_case "cache persists across restart" `Quick
            test_cache_persists_across_restart;
          Alcotest.test_case "torn cache line counted" `Quick test_cache_torn_line_counted;
          Alcotest.test_case "audit catches poisoned cache" `Quick
            test_audit_catches_poisoned_cache;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "stuck worker killed" `Quick test_stuck_worker_killed;
          Alcotest.test_case "chaos kill recovers" `Quick test_chaos_kill_recovers;
          Alcotest.test_case "chaos kill exhausts attempts" `Quick
            test_chaos_kill_exhausts_attempts;
          Alcotest.test_case "queue overflow sheds" `Quick test_queue_overflow_sheds;
          Alcotest.test_case "client disconnect mid-reply" `Quick
            test_client_disconnect_mid_reply;
          Alcotest.test_case "large instance verdict" `Quick test_large_instance;
          Alcotest.test_case "heap budget answers a verdict" `Quick test_heap_budget_verdict;
          Alcotest.test_case "sigterm drain finishes in-flight" `Quick
            test_sigterm_drain_finishes_inflight;
          Alcotest.test_case "serve metrics present" `Quick test_serve_metrics_present;
        ] );
      ( "certification",
        [
          Alcotest.test_case "certified solve ships artifact" `Quick
            test_certified_solve_ships_artifact;
          Alcotest.test_case "cert poison recovers" `Quick test_cert_poison_recovers;
          Alcotest.test_case "cert poison exhausts attempts" `Quick
            test_cert_poison_exhausts_attempts;
        ] );
      ( "query exit codes",
        [
          Alcotest.test_case "verdicts and probes" `Quick test_query_exit_codes_verdicts;
          Alcotest.test_case "memout" `Quick test_query_exit_code_memout;
          Alcotest.test_case "crash" `Quick test_query_exit_code_crash;
          Alcotest.test_case "overloaded" `Quick test_query_exit_code_overloaded;
          Alcotest.test_case "cache audit failure" `Quick test_query_exit_code_audit_failure;
          Alcotest.test_case "certify roundtrip" `Quick test_query_certify_roundtrip;
        ] );
    ]
