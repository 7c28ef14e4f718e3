module Json = Obs.Json

(* ----------------------------------------------------------------- types *)

type status = Pool.status = Value of Json.t | Timeout of float | Memout of float | Crash of float

type completion = {
  task_id : string;
  status : status;
  attempts : int;
  worker_pid : int;
  elapsed_s : float;
  crash_log : string list;
  from_journal : bool;
  salvaged_metrics : Obs.Metrics.sample list;
      (* on a timeout or memout, the worker's last registry delta: from
         its memout frame, or from the newest partial frame a wall-killed
         worker flushed; [] for clean completions and journal rows *)
}

type config = Pool.config = {
  jobs : int;
  wall_s : float option;
  max_attempts : int;
  backoff : Backoff.policy;
  chaos : Hqs_util.Chaos.t;
}

let default_config = Pool.default_config

type report = {
  completions : completion list;
  executed : int;
  journaled : int;
  journal_dropped : int;
}

(* -------------------------------------------------------- serialization *)

let status_label = function
  | Value _ -> "ok"
  | Timeout _ -> "timeout"
  | Memout _ -> "memout"
  | Crash _ -> "crash"

let completion_to_json c =
  Json.Obj
    ([
       ("status", Json.Str (status_label c.status));
       ("elapsed_s", Json.Num c.elapsed_s);
       ("attempts", Json.Num (float_of_int c.attempts));
       ("pid", Json.Num (float_of_int c.worker_pid));
       ("value", (match c.status with Value v -> v | Timeout _ | Memout _ | Crash _ -> Json.Null));
       ("log", Json.Arr (List.map (fun s -> Json.Str s) c.crash_log));
     ]
    (* only when present, so journal lines for clean runs keep their
       exact historical shape *)
    @
    if c.salvaged_metrics = [] then []
    else [ ("salvaged", Pool.samples_to_json c.salvaged_metrics) ])

let completion_of_json ~task_id j =
  let num key = Option.bind (Json.member key j) Json.to_number in
  match (Option.bind (Json.member "status" j) Json.to_string, num "elapsed_s") with
  | Some label, Some elapsed_s -> (
      let status =
        match label with
        | "ok" -> Option.map (fun v -> Value v) (Json.member "value" j)
        | "timeout" -> Some (Timeout elapsed_s)
        | "memout" -> Some (Memout elapsed_s)
        | "crash" -> Some (Crash elapsed_s)
        | _ -> None
      in
      match status with
      | None -> None
      | Some status ->
          let log =
            match Option.bind (Json.member "log" j) Json.to_list with
            | None -> []
            | Some l -> List.filter_map Json.to_string l
          in
          Some
            {
              task_id;
              status;
              attempts = (match num "attempts" with Some a -> int_of_float a | None -> 1);
              worker_pid = (match num "pid" with Some p -> int_of_float p | None -> 0);
              elapsed_s;
              crash_log = log;
              from_journal = true;
              salvaged_metrics =
                (match Json.member "salvaged" j with Some s -> Pool.samples_of_json s | None -> []);
            })
  | _ -> None

(* ------------------------------------------------------------------- run *)

let run ?(config = default_config) ?journal ?resume ?on_complete ~worker tasks =
  let pool = Pool.create config in
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (id, _) ->
      if Hashtbl.mem ids id then invalid_arg ("Supervisor.run: duplicate task id " ^ id);
      Hashtbl.replace ids id ())
    tasks;
  (* resume: every checksum-valid journal line for a known task id is a
     finished task this run must not repeat *)
  let journal_dropped = ref 0 in
  let resumed : (string, completion) Hashtbl.t = Hashtbl.create 16 in
  (match resume with
  | None -> ()
  | Some path ->
      let { Journal.entries; dropped } = Journal.load path in
      journal_dropped := dropped;
      List.iter
        (fun { Journal.task_id; data } ->
          if Hashtbl.mem ids task_id then
            match completion_of_json ~task_id data with
            | Some c -> Hashtbl.replace resumed task_id c
            | None -> incr journal_dropped)
        entries);
  let jnl = Option.map Journal.open_append journal in
  let task_arr = Array.of_list tasks in
  let n = Array.length task_arr in
  let completions : completion option array = Array.make n None in
  let record index c =
    completions.(index) <- Some c;
    Option.iter (fun f -> f c) on_complete
  in
  Array.iteri
    (fun index (id, payload) ->
      match Hashtbl.find_opt resumed id with
      | Some c -> record index c
      | None -> Pool.submit pool ~id index (fun ~attempt:_ -> worker payload))
    task_arr;
  let journaled = n - Pool.queued pool in
  while not (Pool.idle pool) do
    let events, _, _ = Pool.wait pool 0.5 in
    List.iter
      (function
        | Pool.Crashed _ -> ()
        | Pool.Finished (index, (r : Pool.result)) ->
            let c =
              {
                task_id = fst task_arr.(index);
                status = r.status;
                attempts = r.attempts;
                worker_pid = r.worker_pid;
                elapsed_s = r.elapsed_s;
                crash_log = r.crash_log;
                from_journal = false;
                salvaged_metrics = r.salvaged_metrics;
              }
            in
            Option.iter
              (fun j -> Journal.append j { Journal.task_id = c.task_id; data = completion_to_json c })
              jnl;
            record index c)
      events
  done;
  Option.iter Journal.close jnl;
  let completions =
    Array.to_list completions
    |> List.map (function
         | Some c -> c
         | None ->
             (* unreachable: the loop only exits once every task finalized *)
             invalid_arg "Supervisor.run: task finished without a completion")
  in
  { completions; executed = Pool.spawned pool; journaled; journal_dropped = !journal_dropped }
