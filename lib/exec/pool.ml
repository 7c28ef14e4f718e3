module Json = Obs.Json

(* the Budget clock is the one trace-legal timestamp source: monotonic
   and machine-wide, so parent and child events merge in order *)
module Clock = Hqs_util.Budget

(* ----------------------------------------------------------------- types *)

type status = Value of Json.t | Timeout of float | Memout of float | Crash of float

type result = {
  status : status;
  attempts : int;
  worker_pid : int;
  elapsed_s : float;
  crash_log : string list;
  salvaged_metrics : Obs.Metrics.sample list;
}

type config = {
  jobs : int;
  wall_s : float option;
  max_attempts : int;
  backoff : Backoff.policy;
  chaos : Hqs_util.Chaos.t;
}

let default_config =
  {
    jobs = 1;
    wall_s = None;
    max_attempts = 3;
    backoff = Backoff.default;
    chaos = Hqs_util.Chaos.off;
  }

type 'k event = Crashed of 'k * int * string | Finished of 'k * result

type 'k task = {
  key : 'k;
  id : string;
  seq : int;  (* submission number: the task's trace row *)
  body : attempt:int -> Json.t;
  wall_s : float option;
  mutable spawned : int;  (* attempts consumed so far *)
  mutable log : string list;  (* failed-attempt descriptions, newest first *)
  mutable ready_at : float;  (* backoff gate for the next fork *)
}

type 'k proc = {
  pid : int;
  fd : Unix.file_descr;
  rd : Ipc.reader;
  mutable partial : Json.t option;  (* the newest partial frame *)
  mutable torn : string option;  (* the stream broke: no frame can follow *)
  mutable settled : bool;  (* the final frame arrived; only the reap is left *)
  task : 'k task;
  span_id : string;  (* the parent-side span this attempt parents to *)
  started : float;
  deadline : float;
  mutable wall_killed : bool;
}

type 'k t = {
  config : config;
  at_fork : unit -> unit;
  trace_id : string;
  retries : 'k task Queue.t;  (* ready crash retries: forked first *)
  fresh : 'k task Queue.t;
  mutable delayed : 'k task list;  (* retries whose backoff gate is in the future *)
  mutable procs : 'k proc list;
  mutable forks : int;
  mutable submitted : int;
  mutable events : 'k event list;  (* newest first, drained by [wait] *)
  chunk : Bytes.t;  (* pipe read buffer *)
}

(* -------------------------------------------------------- serialization *)

let samples_to_json samples =
  Json.Arr
    (List.map
       (fun (s : Obs.Metrics.sample) ->
         Json.Obj
           [
             ("n", Json.Str s.name);
             ("k", Json.Str (Obs.Metrics.kind_name s.kind));
             ("v", Json.Num s.v);
           ])
       samples)

let samples_of_json j =
  match Json.to_list j with
  | None -> []
  | Some l ->
      List.filter_map
        (fun item ->
          match
            ( Option.bind (Json.member "n" item) Json.to_string,
              Option.bind (Json.member "k" item) Json.to_string,
              Option.bind (Json.member "v" item) Json.to_number )
          with
          | Some name, Some kind, Some v ->
              Option.map
                (fun kind -> { Obs.Metrics.name; kind; v })
                (Obs.Metrics.kind_of_name kind)
          | _ -> None)
        l

(* ----------------------------------------------------------------- child *)

(* the minimum spacing between partial-state flushes: dense span traffic
   must not turn the result pipe into a firehose *)
let flush_interval_s = 0.05

let trace_fields () =
  if not (Obs.Trace.enabled ()) then []
  else
    [
      ("events", Obs.Trace.events_to_json (Obs.Trace.events ()));
      ("dropped", Json.Num (float_of_int (Obs.Trace.dropped ())));
    ]

(* the body of every forked child: never returns *)
let run_child pool task fd ~attempt ~parent_span =
  pool.at_fork ();
  List.iter (fun p -> try Unix.close p.fd with Unix.Unix_error (_, _, _) -> ()) pool.procs;
  (* own session => own process group, so the parent's wall-clock
     SIGKILL takes out any grandchildren too *)
  (try ignore (Unix.setsid ()) with Unix.Unix_error (_, _, _) -> ());
  (* drop the parent's buffered events/open spans (they belong to the
     parent's rows of the merged trace, not this child's), clear any
     inherited flush hook and reset the fallback clock mark *)
  Obs.fork_reinit ();
  if
    Hqs_util.Chaos.fire pool.config.chaos
      (Hqs_util.Chaos.worker_kill_point ~task:task.id ~attempt)
  then Unix.kill (Unix.getpid ()) Sys.sigkill;
  let before = Obs.Metrics.snapshot () in
  (* a SIGKILL (wall/chaos) gives no chance to reply, so every span exit
     flushes a throttled partial frame: latest metric delta plus the span
     buffer so far. The parent keeps only the newest one, and only uses
     it when no final frame arrives. *)
  let last_flush = ref (Clock.now ()) in
  Obs.Span.set_flush_hook
    (Some
       (fun () ->
         let now = Clock.now () in
         if now -. !last_flush >= flush_interval_s then begin
           last_flush := now;
           let delta = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
           Ipc.write_frame fd
             (Json.Obj
                ((("status", Json.Str "partial") :: ("metrics", samples_to_json delta) :: [])
                @ trace_fields ()))
         end));
  (* the child's root span carries the cross-process parent link: the
     parent's per-attempt span id and the pool's trace id *)
  let root_attrs =
    [ ("trace_id", Obs.Str pool.trace_id); ("parent_span", Obs.Str parent_span) ]
  in
  let run () = Obs.Span.with_ "sup.child" ~attrs:root_attrs (fun () -> task.body ~attempt) in
  let result = match run () with v -> Ok v | exception e -> Error e in
  Obs.Span.set_flush_hook None;
  let delta = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
  let with_obs fields = Json.Obj (fields @ [ ("metrics", samples_to_json delta) ] @ trace_fields ()) in
  let frame =
    match result with
    | Ok v -> with_obs [ ("status", Json.Str "ok"); ("value", v) ]
    | Error Stdlib.Out_of_memory ->
        (* the runtime's allocator said no: a clean memout *)
        with_obs [ ("status", Json.Str "memout") ]
    | Error Stack_overflow ->
        with_obs [ ("status", Json.Str "error"); ("detail", Json.Str "Stack_overflow") ]
    (* arbitrary task failures were converted into [Error e] above;
       nothing is swallowed, the parent classifies the failure as a
       crash attempt *)
    | Error e ->
        with_obs [ ("status", Json.Str "error"); ("detail", Json.Str (Printexc.to_string e)) ]
  in
  (match Ipc.write_frame fd frame with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  (* _exit, not exit: at_exit handlers (inherited channel flushes) must
     not run in the forked copy *)
  Unix._exit 0

(* ---------------------------------------------------------------- parent *)

let create ?(at_fork = fun () -> ()) config =
  if config.jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if config.max_attempts < 1 then invalid_arg "Pool.create: max_attempts must be >= 1";
  Ipc.ignore_sigpipe ();
  {
    config;
    at_fork;
    (* one trace context per pool: child root spans link back to the
       parent's per-attempt spans through (trace_id, span_id) pairs *)
    trace_id =
      Printf.sprintf "pool-%d-%x" (Unix.getpid ())
        (int_of_float (Float.rem (Clock.now () *. 1e3) 16777216.0));
    retries = Queue.create ();
    fresh = Queue.create ();
    delayed = [];
    procs = [];
    forks = 0;
    submitted = 0;
    events = [];
    chunk = Bytes.create 65536;
  }

let submit pool ?wall_s ?(spent = 0) ~id key body =
  let task =
    {
      key;
      id;
      seq = pool.submitted;
      body;
      wall_s = (match wall_s with Some _ -> wall_s | None -> pool.config.wall_s);
      spawned = spent;
      log = [];
      ready_at = 0.0;
    }
  in
  pool.submitted <- pool.submitted + 1;
  Queue.add task (if spent > 0 then pool.retries else pool.fresh)

let running pool = List.length pool.procs
let queued pool = Queue.length pool.retries + Queue.length pool.fresh + List.length pool.delayed
let idle pool = pool.procs = [] && queued pool = 0
let spawned pool = pool.forks

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal(%d)" s

let kill_group pid =
  match Unix.kill (-pid) Sys.sigkill with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> (
      match Unix.kill pid Sys.sigkill with
      | () -> ()
      | exception Unix.Unix_error (_, _, _) -> ())

(* each task gets its own Chrome thread row: [Span.with_]'s strict
   nesting cannot express [jobs] overlapping attempts on one row *)
let task_tid task = 1000 + task.seq

(* The one fork site of the code base (the lint rule [fork-site]
   enforces it). *)
let spawn pool task =
  let span_id = Printf.sprintf "%s#%d" task.id (task.spawned + 1) in
  task.spawned <- task.spawned + 1;
  pool.forks <- pool.forks + 1;
  Obs.Trace.emit ~tid:(task_tid task)
    ~attrs:
      [
        ("task", Obs.Str task.id);
        ("attempt", Obs.Int task.spawned);
        ("trace_id", Obs.Str pool.trace_id);
        ("span_id", Obs.Str span_id);
      ]
    "sup.task" Obs.Trace.Begin;
  (* the child inherits stdio buffers; empty them so it cannot re-flush
     parent output (it uses _exit, but a task that prints would
     interleave) *)
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 -> (
      Unix.close r;
      (* [run_child] guards only the task body. Whatever raises before
         it ([?at_fork], the fork reset, the chaos query, the first
         metrics snapshot) must end the child here too, not unwind into
         the parent's copied stack and its handlers; the parent
         classifies the nonzero exit as a crash attempt *)
      match run_child pool task w ~attempt:task.spawned ~parent_span:span_id with
      | () -> ()
      | exception _ -> Unix._exit 2)
  | pid ->
      Unix.close w;
      let now = Clock.now () in
      let deadline = match task.wall_s with Some s -> now +. s | None -> infinity in
      pool.procs <-
        {
          pid;
          fd = r;
          rd = Ipc.reader ();
          partial = None;
          torn = None;
          settled = false;
          task;
          span_id;
          started = now;
          deadline;
          wall_killed = false;
        }
        :: pool.procs

let frame_samples frame =
  match Json.member "metrics" frame with Some m -> samples_of_json m | None -> []

(* fold a child frame's span buffer into the parent trace, under the
   child's pid row; [truncated] marks batches recovered from a killed
   attempt so synthesized span ends are flagged in the output *)
let inject_frame_events ~pid ~truncated frame =
  if Obs.Trace.enabled () then
    match Json.member "events" frame with
    | None -> ()
    | Some ev_json ->
        let dropped =
          match Option.bind (Json.member "dropped" frame) Json.to_number with
          | Some d -> int_of_float d
          | None -> 0
        in
        Obs.Trace.inject ~pid ~dropped ~truncated (Obs.Trace.events_of_json ev_json)

let finish pool ?(salvaged = []) proc status elapsed =
  let task = proc.task in
  pool.events <-
    Finished
      ( task.key,
        {
          status;
          attempts = task.spawned;
          worker_pid = proc.pid;
          elapsed_s = elapsed;
          crash_log = List.rev task.log;
          salvaged_metrics = salvaged;
        } )
    :: pool.events

let crash_attempt pool proc detail elapsed =
  let task = proc.task in
  task.log <- Printf.sprintf "attempt %d: %s" task.spawned detail :: task.log;
  pool.events <- Crashed (task.key, task.spawned, detail) :: pool.events;
  if task.spawned >= pool.config.max_attempts then finish pool proc (Crash elapsed) elapsed
  else begin
    task.ready_at <- Clock.now () +. Backoff.delay pool.config.backoff ~attempt:task.spawned;
    pool.delayed <- task :: pool.delayed
  end

(* a killed attempt left no result frame, but usually a recent partial
   one: salvage its metric delta (absorbed into this registry and kept
   on the result for TO/MO reporting) and its span buffer *)
let salvage_partial proc frame_opt =
  match frame_opt with
  | None -> []
  | Some frame ->
      let samples = frame_samples frame in
      Obs.Metrics.absorb samples;
      inject_frame_events ~pid:proc.pid ~truncated:true frame;
      samples

(* The final frame settles the attempt as soon as it is complete: the
   child only [_exit]s after writing it, so its exit status adds nothing
   and the result need not wait for the process teardown. *)
let settle pool proc frame =
  proc.settled <- true;
  let elapsed = Clock.now () -. proc.started in
  match Option.bind (Json.member "status" frame) Json.to_string with
  | Some "ok" -> (
      Obs.Metrics.absorb (frame_samples frame);
      inject_frame_events ~pid:proc.pid ~truncated:false frame;
      match Json.member "value" frame with
      | Some v -> finish pool proc (Value v) elapsed
      | None -> crash_attempt pool proc "protocol: ok frame without value" elapsed)
  | Some "memout" ->
      let samples = frame_samples frame in
      Obs.Metrics.absorb samples;
      inject_frame_events ~pid:proc.pid ~truncated:false frame;
      finish pool ~salvaged:samples proc (Memout elapsed) elapsed
  | Some "error" ->
      let detail =
        match Option.bind (Json.member "detail" frame) Json.to_string with
        | Some d -> d
        | None -> "unknown"
      in
      crash_attempt pool proc ("worker exception: " ^ detail) elapsed
  | Some other -> crash_attempt pool proc ("protocol: unknown status " ^ other) elapsed
  | None -> crash_attempt pool proc "protocol: frame without status" elapsed

(* children may send any number of throttled "partial" frames before the
   final one (or before dying); keep the newest partial, settle on the
   final frame. Torn bytes from a mid-write kill end the stream. *)
let rec take_frames pool proc =
  if proc.torn = None && not proc.settled then
    match Ipc.next_frame proc.rd with
    | None -> ()
    | Some (Error msg) -> proc.torn <- Some msg
    | Some (Ok frame) ->
        if Option.bind (Json.member "status" frame) Json.to_string = Some "partial" then begin
          proc.partial <- Some frame;
          take_frames pool proc
        end
        else settle pool proc frame

(* a child that closed its pipe without a final frame: its exit status
   says what happened *)
let classify pool proc wstatus elapsed =
  if proc.wall_killed then
    let salvaged = salvage_partial proc proc.partial in
    finish pool ~salvaged proc (Timeout elapsed) elapsed
  else
    match wstatus with
    | Unix.WEXITED 0 ->
        let msg = Option.value proc.torn ~default:"missing final frame" in
        crash_attempt pool proc ("protocol: " ^ msg) elapsed
    | Unix.WEXITED code -> crash_attempt pool proc (Printf.sprintf "exit %d" code) elapsed
    | Unix.WSIGNALED s ->
        (* a crash may be retried: keep the trace row, skip the metric
           absorb so retries cannot double-count *)
        inject_frame_events ~pid:proc.pid ~truncated:true
          (Option.value ~default:(Json.Obj []) proc.partial);
        crash_attempt pool proc (signal_name s) elapsed
    | Unix.WSTOPPED s -> crash_attempt pool proc ("stopped by " ^ signal_name s) elapsed

let reap pool proc =
  pool.procs <- List.filter (fun p -> p.pid <> proc.pid) pool.procs;
  Unix.close proc.fd;
  let rec wait () =
    match Unix.waitpid [] proc.pid with
    | _, wstatus -> wstatus
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let wstatus = wait () in
  let elapsed = Clock.now () -. proc.started in
  if not proc.settled then classify pool proc wstatus elapsed;
  Obs.Trace.emit ~tid:(task_tid proc.task)
    ~attrs:
      [
        ("task", Obs.Str proc.task.id);
        ("span_id", Obs.Str proc.span_id);
        ("worker_pid", Obs.Int proc.pid);
        ("elapsed_s", Obs.Float elapsed);
      ]
    "sup.task" Obs.Trace.End

let read_ready pool fds =
  List.iter
    (fun fd ->
      match List.find_opt (fun p -> p.fd = fd) pool.procs with
      | None -> ()
      | Some proc -> (
          match Unix.read fd pool.chunk 0 (Bytes.length pool.chunk) with
          | 0 -> reap pool proc
          | len ->
              Ipc.feed proc.rd pool.chunk len;
              take_frames pool proc
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
    fds

(* promote retries whose backoff gate has passed, then fill free slots,
   retries first *)
let dispatch pool =
  let now = Clock.now () in
  let ready, still = List.partition (fun t -> t.ready_at <= now) pool.delayed in
  pool.delayed <- still;
  List.iter (fun t -> Queue.add t pool.retries) (List.rev ready);
  let rec fill () =
    if List.length pool.procs < pool.config.jobs then
      match Queue.take_opt pool.retries with
      | Some t ->
          spawn pool t;
          fill ()
      | None -> (
          match Queue.take_opt pool.fresh with
          | Some t ->
              spawn pool t;
              fill ()
          | None -> ())
  in
  fill ()

let wait pool ?(read = []) ?(write = []) timeout =
  dispatch pool;
  let now = Clock.now () in
  let next =
    List.fold_left
      (fun acc t -> Float.min acc t.ready_at)
      (List.fold_left (fun acc p -> Float.min acc p.deadline) infinity pool.procs)
      pool.delayed
  in
  let timeout = Float.max 0.0 (Float.min timeout (next -. now)) in
  let pipes = List.map (fun p -> p.fd) pool.procs in
  let readable, writable =
    match Unix.select (pipes @ read) write [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ([], [])
  in
  read_ready pool (List.filter (fun fd -> List.mem fd pipes) readable);
  let now = Clock.now () in
  List.iter
    (fun p ->
      if (not p.wall_killed) && now > p.deadline then begin
        p.wall_killed <- true;
        kill_group p.pid
      end)
    pool.procs;
  let events = List.rev pool.events in
  pool.events <- [];
  (events, List.filter (fun fd -> List.mem fd read) readable, writable)
