(* Tests for lib/exec: process-isolated execution on the forked worker
   pool, wall deadlines, crash retries, and the crash-safe journal. *)

module Json = Obs.Json
module Pool = Exec.Pool
module Journal = Exec.Journal
module Chaos = Hqs_util.Chaos

let tmp_file name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists path then Sys.remove path;
  path

let status_label = function
  | Pool.Value _ -> "ok"
  | Pool.Timeout _ -> "timeout"
  | Pool.Memout _ -> "memout"
  | Pool.Crash _ -> "crash"

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  go 0

(* step a pool until it is idle, collecting its events in order *)
let drain pool =
  let rec go acc =
    if Pool.idle pool then List.rev acc
    else
      let events, _, _ = Pool.wait pool 0.5 in
      go (List.rev_append events acc)
  in
  go []

let finished events key =
  match
    List.find_map
      (function Pool.Finished (k, r) when String.equal k key -> Some r | _ -> None)
      events
  with
  | Some r -> r
  | None -> Alcotest.failf "no Finished event for %s" key

(* a batch of [(id, payload)] tasks on a fresh pool, each under the
   deadline [?wall_s], drained: the pool, and its events in order *)
let run_batch ?wall_s config worker tasks =
  let pool = Pool.create config in
  List.iter (fun (id, x) -> Pool.submit pool ?wall_s ~id id (fun ~attempt:_ -> worker x)) tasks;
  (pool, drain pool)

(* ------------------------------------------------------------ supervisor *)

(* the pool supervising a batch: values, quarantine, retry and the crash
   taxonomy, each task run to its final Finished event *)

(* a worker that squares its payload in the child and sends it back *)
let square n = Json.Num (float_of_int (n * n))

let test_value_roundtrip () =
  let tasks = List.init 5 (fun i -> (Printf.sprintf "t%d" i, i)) in
  let pool, events = run_batch { Pool.default_config with jobs = 2 } square tasks in
  Alcotest.(check int) "all tasks finished once" 5
    (List.length (List.filter (function Pool.Finished _ -> true | Pool.Crashed _ -> false) events));
  Alcotest.(check int) "all executed" 5 (Pool.spawned pool);
  List.iter
    (fun (id, i) ->
      let r = finished events id in
      Alcotest.(check int) "one attempt" 1 r.Pool.attempts;
      match r.Pool.status with
      | Pool.Value (Json.Num v) ->
          Alcotest.(check (float 0.0)) "squared in child" (float_of_int (i * i)) v
      | s -> Alcotest.failf "task %s: expected Value, got %s" id (status_label s))
    tasks

let test_chaos_kill_quarantine () =
  (* arm the kill point for every attempt of t1: it must be quarantined
     as Crash after exactly max_attempts spawns *)
  let max_attempts = 3 in
  let points =
    List.init max_attempts (fun i -> Chaos.worker_kill_point ~task:"t1" ~attempt:(i + 1))
  in
  let chaos = Chaos.arm points in
  let config = { Pool.jobs = 2; max_attempts; chaos } in
  let _, events = run_batch config square [ ("t0", 2); ("t1", 3); ("t2", 4) ] in
  let c1 = finished events "t1" in
  (match c1.Pool.status with
  | Pool.Crash _ -> ()
  | s -> Alcotest.failf "expected Crash, got %s" (status_label s));
  Alcotest.(check int) "quarantined after max_attempts" max_attempts c1.Pool.attempts;
  Alcotest.(check int) "one log line per failed attempt" max_attempts
    (List.length c1.Pool.crash_log);
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "log mentions SIGKILL: %s" line)
        true
        (contains ~needle:"SIGKILL" line))
    c1.Pool.crash_log;
  (* the bystanders still finish cleanly *)
  List.iter
    (fun id ->
      match (finished events id).Pool.status with
      | Pool.Value _ -> ()
      | s -> Alcotest.failf "%s: expected Value, got %s" id (status_label s))
    [ "t0"; "t2" ]

let test_retry_recovers () =
  (* kill only attempt 1: the retry must succeed with attempts = 2 *)
  let chaos = Chaos.arm [ Chaos.worker_kill_point ~task:"t0" ~attempt:1 ] in
  let config = { Pool.default_config with max_attempts = 3; chaos } in
  let pool, events = run_batch config square [ ("t0", 6) ] in
  let c = finished events "t0" in
  (match c.Pool.status with
  | Pool.Value (Json.Num v) -> Alcotest.(check (float 0.0)) "recovered value" 36.0 v
  | s -> Alcotest.failf "expected Value, got %s" (status_label s));
  Alcotest.(check int) "second attempt succeeded" 2 c.Pool.attempts;
  Alcotest.(check int) "both spawns counted" 2 (Pool.spawned pool)

let test_out_of_memory_memout () =
  (* a body whose allocation fails raises Out_of_memory (the runtime
     does so under a shell's [ulimit -v]); it must come back as a clean
     Memout frame, not a crash *)
  let worker () = raise Out_of_memory in
  let _, events = run_batch { Pool.default_config with max_attempts = 1 } worker [ ("oom", ()) ] in
  match (finished events "oom").Pool.status with
  | Pool.Memout _ -> ()
  | s -> Alcotest.failf "expected Memout, got %s" (status_label s)

let test_wall_timeout () =
  let worker () =
    Unix.sleepf 30.0;
    Json.Null
  in
  let config = { Pool.default_config with max_attempts = 1 } in
  let t0 = Hqs_util.Mono.now () in
  let _, events = run_batch ~wall_s:0.2 config worker [ ("sleeper", ()) ] in
  let wall = Hqs_util.Mono.now () -. t0 in
  Alcotest.(check bool) "killed promptly, not after 30 s" true (wall < 10.0);
  match (finished events "sleeper").Pool.status with
  | Pool.Timeout _ -> ()
  | s -> Alcotest.failf "expected Timeout, got %s" (status_label s)

let test_crash_exit_code () =
  (* a worker that _exits nonzero without a frame, and a body that
     raises [Stack_overflow], are each a crash attempt, retried and then
     quarantined *)
  let dier () = Unix._exit 3 [@warning "-20"] in
  let overflow () = raise Stack_overflow in
  let config = { Pool.default_config with max_attempts = 2 } in
  let _, events =
    run_batch config (fun body -> body ()) [ ("dier", dier); ("overflow", overflow) ]
  in
  List.iter
    (fun (id, needle) ->
      let c = finished events id in
      (match c.Pool.status with
      | Pool.Crash _ -> ()
      | s -> Alcotest.failf "%s: expected Crash, got %s" id (status_label s));
      Alcotest.(check int) (id ^ ": retried then quarantined") 2 c.Pool.attempts;
      List.iter
        (fun line ->
          Alcotest.(check bool) (Printf.sprintf "%s: log names the fault: %s" id line) true
            (contains ~needle line))
        c.Pool.crash_log)
    [ ("dier", "exit 3"); ("overflow", "Stack overflow") ]

(* ------------------------------------------------------------ fork traces *)

let test_trace_spans_fork () =
  (* with tracing on, worker spans recorded inside the forked child must
     come back through the result frame and merge under the worker's
     own pid row, parented to the pool's per-task span *)
  Obs.Trace.reset ();
  Obs.Trace.start ();
  let worker n = Obs.Span.with_ "w.solve" (fun () -> square n) in
  let _, events = run_batch { Pool.default_config with jobs = 2 } worker [ ("t0", 2); ("t1", 3) ] in
  Obs.Trace.stop ();
  List.iter
    (fun id ->
      match (finished events id).Pool.status with
      | Pool.Value _ -> ()
      | s -> Alcotest.failf "%s: expected Value, got %s" id (status_label s))
    [ "t0"; "t1" ];
  let json =
    match Json.parse (Obs.Trace.to_chrome_json ()) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "merged trace does not parse: %s" msg
  in
  Obs.Trace.reset ();
  let evs =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let str m ev = match Json.member m ev with Some (Json.Str s) -> Some s | _ -> None in
  let num m ev = Option.bind (Json.member m ev) Json.to_number in
  let pid_of ev = match num "pid" ev with Some p -> int_of_float p | None -> 1 in
  let begins = List.filter (fun ev -> str "ph" ev = Some "B") evs in
  let arg m ev = Option.bind (Json.member "args" ev) (str m) in
  (* span_id -> declaring pid, from the supervisor's sup.task rows *)
  let span_pids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match arg "span_id" ev with
      | Some id -> Hashtbl.replace span_pids id (pid_of ev)
      | None -> ())
    begins;
  let self = Unix.getpid () in
  let child_roots =
    List.filter (fun ev -> str "name" ev = Some "sup.child") begins
  in
  Alcotest.(check int) "one child root per task" 2 (List.length child_roots);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "child events render under the worker pid" true
        (pid_of ev <> self);
      match arg "parent_span" ev with
      | None -> Alcotest.fail "child root without a parent_span link"
      | Some parent -> (
          match Hashtbl.find_opt span_pids parent with
          | None -> Alcotest.failf "parent_span %s matches no span_id" parent
          | Some ppid ->
              Alcotest.(check int) "parent span lives in the supervisor" self ppid))
    child_roots;
  (* the span opened by user code inside the child made the merge too *)
  Alcotest.(check bool) "worker-side span present" true
    (List.exists (fun ev -> str "name" ev = Some "w.solve") begins)

let test_timeout_salvages_partial_metrics () =
  (* a worker killed by the wall limit mid-run: the throttled partial
     frames it flushed on span exits must surface as salvaged_metrics on
     the Timeout result *)
  let c = Obs.Metrics.counter "t.salvage.steps" in
  let worker () =
    for _ = 1 to 10 do
      Obs.Metrics.incr c;
      Obs.Span.with_ "w.step" (fun () -> Unix.sleepf 0.03)
    done;
    Unix.sleepf 30.0;
    Json.Null
  in
  let config = { Pool.default_config with max_attempts = 1 } in
  let _, events = run_batch ~wall_s:1.0 config worker [ ("slow", ()) ] in
  let r = finished events "slow" in
  (match r.Pool.status with
  | Pool.Timeout _ -> ()
  | s -> Alcotest.failf "expected Timeout, got %s" (status_label s));
  Alcotest.(check bool) "partial metrics salvaged" true (r.Pool.salvaged_metrics <> []);
  match Obs.Metrics.find r.Pool.salvaged_metrics "t.salvage.steps" with
  | None -> Alcotest.fail "salvaged delta misses the child-side counter"
  | Some v -> Alcotest.(check bool) "a flushed prefix of the steps" true (v >= 1.0)

(* ------------------------------------------------------------------ pool *)

(* position of a task's Finished event in the event stream *)
let finish_rank events key =
  let rec go i = function
    | [] -> Alcotest.failf "no Finished event for %s" key
    | Pool.Finished (k, _) :: _ when String.equal k key -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 events

let test_pool_per_task_deadlines () =
  (* one pool, two deadlines: only the task past its own wall limit is
     killed *)
  let pool = Pool.create { Pool.default_config with jobs = 2; max_attempts = 1 } in
  let sleeper s ~attempt:_ =
    Unix.sleepf s;
    Json.Str "done"
  in
  Pool.submit pool ~wall_s:0.3 ~id:"short" "short" (sleeper 30.0);
  Pool.submit pool ~wall_s:20.0 ~id:"long" "long" (sleeper 0.6);
  let events = drain pool in
  (match (finished events "short").Pool.status with
  | Pool.Timeout _ -> ()
  | s -> Alcotest.failf "short: expected Timeout, got %s" (status_label s));
  match (finished events "long").Pool.status with
  | Pool.Value (Json.Str "done") -> ()
  | s -> Alcotest.failf "long: expected Value, got %s" (status_label s)

exception At_fork_failed

let test_pool_at_fork_raises () =
  (* an exception raised in the child before the task body must end the
     child there, as a crash attempt. Unwinding into the copied stack
     would reach the handler below in the child, which exits 99 *)
  let pool =
    Pool.create ~at_fork:(fun () -> raise At_fork_failed)
      { Pool.default_config with max_attempts = 1 }
  in
  Pool.submit pool ~id:"t" "t" (fun ~attempt:_ -> Json.Null);
  let events = match drain pool with e -> e | exception At_fork_failed -> Unix._exit 99 in
  match events with
  | [ Pool.Crashed ("t", 1, detail); Pool.Finished ("t", { Pool.status = Pool.Crash _; _ }) ]
    ->
      Alcotest.(check bool)
        (Printf.sprintf "a nonzero exit, not the test's handler: %s" detail)
        true
        (contains ~needle:"exit " detail && not (contains ~needle:"99" detail))
  | _ -> Alcotest.failf "expected one crash attempt and a Crash, got %d events" (List.length events)

let test_pool_submit_while_running () =
  (* a task submitted while another runs gets the free slot at once and
     finishes first *)
  let pool = Pool.create { Pool.default_config with jobs = 2 } in
  Pool.submit pool ~id:"first" "first" (fun ~attempt:_ ->
      Unix.sleepf 0.8;
      Json.Num 1.0);
  let early, _, _ = Pool.wait pool 0.05 in
  Alcotest.(check int) "nothing finished yet" 0 (List.length early);
  Alcotest.(check int) "first is running" 1 (Pool.running pool);
  Pool.submit pool ~id:"second" "second" (fun ~attempt:_ -> Json.Num 2.0);
  let events = drain pool in
  Alcotest.(check bool) "second finished before first" true
    (finish_rank events "second" < finish_rank events "first");
  List.iter
    (fun key ->
      match (finished events key).Pool.status with
      | Pool.Value _ -> ()
      | s -> Alcotest.failf "%s: expected Value, got %s" key (status_label s))
    [ "first"; "second" ];
  Alcotest.(check int) "one fork per task" 2 (Pool.spawned pool)

let test_pool_retry_ahead_of_queued () =
  (* one slot; "a" is killed on its first attempt while "b" waits in the
     queue: a's retry is forked before b *)
  let chaos = Chaos.arm [ Chaos.worker_kill_point ~task:"a" ~attempt:1 ] in
  let pool = Pool.create { Pool.default_config with jobs = 1; chaos } in
  Pool.submit pool ~id:"a" "a" (fun ~attempt -> Json.Num (float_of_int attempt));
  Pool.submit pool ~id:"b" "b" (fun ~attempt:_ -> Json.Num 0.0);
  let events = drain pool in
  (match events with
  | Pool.Crashed ("a", 1, detail) :: _ ->
      Alcotest.(check bool) "crash names the signal" true (contains ~needle:"SIGKILL" detail)
  | _ -> Alcotest.fail "expected a's first attempt to crash first");
  Alcotest.(check bool) "a's retry finished before b" true
    (finish_rank events "a" < finish_rank events "b");
  let a = finished events "a" in
  Alcotest.(check int) "a took two attempts" 2 a.Pool.attempts;
  match a.Pool.status with
  | Pool.Value (Json.Num v) -> Alcotest.(check (float 0.0)) "value from attempt 2" 2.0 v
  | s -> Alcotest.failf "a: expected Value, got %s" (status_label s)

let test_pool_wait_returns_caller_fds () =
  (* caller descriptors ride in the pool's select: the ready ones come
     back, the idle one and the pool's own pipe do not *)
  (* lint: allow raw-fd *)
  let ready_r, ready_w = Unix.pipe () in
  (* lint: allow raw-fd *)
  let idle_r, idle_w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close [ ready_r; ready_w; idle_r; idle_w ])
    (fun () ->
      let pool = Pool.create Pool.default_config in
      Pool.submit pool ~id:"sleeper" "sleeper" (fun ~attempt:_ ->
          Unix.sleepf 0.3;
          Json.Null);
      ignore (Unix.write_substring ready_w "x" 0 1);
      let events, readable, writable =
        Pool.wait pool ~read:[ ready_r; idle_r ] ~write:[ ready_w ] 5.0
      in
      Alcotest.(check int) "no task finished" 0 (List.length events);
      Alcotest.(check bool) "ready read fd returned" true (List.mem ready_r readable);
      Alcotest.(check bool) "idle read fd not returned" false (List.mem idle_r readable);
      Alcotest.(check int) "only caller fds come back" 1 (List.length readable);
      Alcotest.(check bool) "write fd returned" true (List.mem ready_w writable);
      ignore (drain pool))

(* -------------------------------------------------------------- event log *)

let test_eventlog_rotation_and_torn_tail () =
  let path = tmp_file "hqs_test_eventlog.jsonl" in
  let rotated = Exec.Eventlog.rotated_path path in
  if Sys.file_exists rotated then Sys.remove rotated;
  let t = Exec.Eventlog.create ~max_bytes:512 path in
  for i = 1 to 40 do
    Exec.Eventlog.log t ~event:"admit"
      ~trace_id:(Printf.sprintf "serve-1-%d" i)
      ~fields:[ ("jid", Json.Num (float_of_int i)) ]
      ()
  done;
  Exec.Eventlog.close t;
  Alcotest.(check bool) "rotation produced a previous generation" true
    (Sys.file_exists rotated);
  let clean = Exec.Eventlog.load path in
  Alcotest.(check int) "clean log has no torn lines" 0 clean.Exec.Eventlog.dropped;
  Alcotest.(check bool) "current generation non-empty" true (clean.events <> []);
  (* the event bodies carry the kind tag and the trace id *)
  List.iter
    (fun e ->
      (match Json.member "ev" e with
      | Some (Json.Str "admit") -> ()
      | _ -> Alcotest.fail "event body without its kind tag");
      match Json.member "trace" e with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "event body without its trace id")
    clean.events;
  (* seq numbers span the rotation: the previous generation holds a
     strictly earlier prefix *)
  let seqs load =
    List.filter_map (fun e -> Option.bind (Json.member "seq" e) Json.to_number) load.Exec.Eventlog.events
  in
  let prev = Exec.Eventlog.load rotated in
  Alcotest.(check int) "no torn lines in the rotated file" 0 prev.dropped;
  (match (seqs prev, seqs clean) with
  | (_ :: _ as old_seqs), newest :: _ ->
      Alcotest.(check bool) "rotation preserved ordering" true
        (List.for_all (fun s -> s < newest) old_seqs)
  | _ -> Alcotest.fail "expected events on both sides of the rotation");
  (* a writer killed mid-append leaves one torn line, which load skips *)
  Out_channel.with_open_gen
    [ Out_channel.Open_append; Out_channel.Open_binary ]
    0o644 path
    (fun oc -> Out_channel.output_string oc "{\"c\":\"feedbeef\",\"e\":{\"seq\":9");
  let reloaded = Exec.Eventlog.load path in
  Alcotest.(check int) "torn tail dropped" 1 reloaded.Exec.Eventlog.dropped;
  Alcotest.(check int) "intact lines survive the tear"
    (List.length clean.events)
    (List.length reloaded.events);
  Sys.remove path;
  Sys.remove rotated

(* --------------------------------------------------------------- journal *)

let entry id v = { Journal.task_id = id; data = Json.Obj [ ("v", Json.Num v) ] }

let test_journal_roundtrip () =
  let line = Journal.encode_line (entry "a/hqs" 1.5) in
  match Journal.decode_line line with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok { task_id; data } ->
      Alcotest.(check string) "id survives" "a/hqs" task_id;
      Alcotest.(check (option (float 0.0))) "payload survives" (Some 1.5)
        (Option.bind (Json.member "v" data) Json.to_number)

let test_journal_detects_corruption () =
  let line = Journal.encode_line (entry "a" 1.0) in
  (* flip a payload byte without touching the checksum *)
  let target = String.index line 'a' in
  let corrupt = Bytes.of_string line in
  Bytes.set corrupt target 'b';
  match Journal.decode_line (Bytes.to_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted line decoded successfully"

let test_journal_torn_write_recovery () =
  let path = tmp_file "hqs_test_journal.jsonl" in
  let j = Journal.open_append path in
  Journal.append j (entry "a" 1.0);
  Journal.append j (entry "b" 2.0);
  Journal.close j;
  (* simulate a parent killed mid-append: a torn half line at the tail *)
  let full = Journal.encode_line (entry "c" 3.0) in
  let torn = String.sub full 0 (String.length full / 2) in
  Out_channel.with_open_gen
    [ Out_channel.Open_append; Out_channel.Open_binary ]
    0o644 path
    (fun oc -> Out_channel.output_string oc torn);
  let { Journal.entries; dropped } = Journal.load path in
  Alcotest.(check int) "intact lines survive" 2 (List.length entries);
  Alcotest.(check int) "torn tail dropped" 1 dropped;
  Alcotest.(check (list string)) "order preserved" [ "a"; "b" ]
    (List.map (fun e -> e.Journal.task_id) entries);
  Sys.remove path

let test_journal_missing_file () =
  let { Journal.entries; dropped } = Journal.load "/nonexistent/hqs/journal.jsonl" in
  Alcotest.(check int) "no entries" 0 (List.length entries);
  Alcotest.(check int) "nothing dropped" 0 dropped

let () =
  Alcotest.run "exec"
    [
      ( "supervisor",
        [
          Alcotest.test_case "value roundtrip, jobs=2" `Quick test_value_roundtrip;
          Alcotest.test_case "chaos kill quarantines after K" `Quick test_chaos_kill_quarantine;
          Alcotest.test_case "transient kill recovers on retry" `Quick test_retry_recovers;
          Alcotest.test_case "out-of-memory body is memout" `Quick test_out_of_memory_memout;
          Alcotest.test_case "wall timeout kills sleeper" `Slow test_wall_timeout;
          Alcotest.test_case "nonzero exit crashes" `Quick test_crash_exit_code;
        ] );
      ( "fork-traces",
        [
          Alcotest.test_case "child spans stitch under the task span" `Quick
            test_trace_spans_fork;
          Alcotest.test_case "timeout salvages partial metrics" `Slow
            test_timeout_salvages_partial_metrics;
        ] );
      ( "pool",
        [
          Alcotest.test_case "per-task wall deadlines" `Quick test_pool_per_task_deadlines;
          Alcotest.test_case "submit while a task runs" `Quick test_pool_submit_while_running;
          Alcotest.test_case "raising at_fork is a crash attempt" `Quick test_pool_at_fork_raises;
          Alcotest.test_case "crash retry ahead of queued task" `Quick
            test_pool_retry_ahead_of_queued;
          Alcotest.test_case "wait returns ready caller fds" `Quick
            test_pool_wait_returns_caller_fds;
        ] );
      ( "event-log",
        [
          Alcotest.test_case "rotation and torn tail" `Quick
            test_eventlog_rotation_and_torn_tail;
        ] );
      ( "journal",
        [
          Alcotest.test_case "line roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_journal_detects_corruption;
          Alcotest.test_case "torn write recovery" `Quick test_journal_torn_write_recovery;
          Alcotest.test_case "missing file is empty" `Quick test_journal_missing_file;
        ] );
    ]
