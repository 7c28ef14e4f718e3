module Json = Obs.Json
module Pool = Exec.Pool

(* ------------------------------------------------------------------ ids *)

type item = { id : string; family : string; pcnf : Dqbf.Pcnf.t }

let item_of_instance (inst : Circuit.Families.instance) =
  {
    id = inst.Circuit.Families.id;
    family = inst.Circuit.Families.family;
    pcnf = inst.Circuit.Families.pcnf;
  }

type solver = Hqs_run | Idq_run

let solver_suffix = function Hqs_run -> "hqs" | Idq_run -> "idq"
let task_id item solver = item.id ^ "/" ^ solver_suffix solver

(* ---------------------------------------------------------------- config *)

type config = {
  timeout : float;
  node_limit : int;
  hqs_config : Hqs.config;
  mem_limit_mb : int option;
  exec : Pool.config;
  certify_dir : string option;
}

let default_config ~timeout ~node_limit =
  {
    timeout;
    node_limit;
    hqs_config = Hqs.default_config;
    mem_limit_mb = None;
    exec = Pool.default_config;
    certify_dir = None;
  }

type progress = {
  task : string;
  outcome : Runner.outcome;
  attempts : int;
  from_journal : bool;
}

type sweep_report = {
  results : Runner.result list;
  executed : int;
  journaled : int;
  journal_dropped : int;
}

(* --------------------------------------------------- outcome (de)coding *)

let outcome_to_json = function
  | Runner.Solved (v, t) ->
      Json.Obj [ ("o", Json.Str (if v then "SAT" else "UNSAT")); ("t", Json.Num t) ]
  | Runner.Timeout t -> Json.Obj [ ("o", Json.Str "TO"); ("t", Json.Num t) ]
  | Runner.Memout t -> Json.Obj [ ("o", Json.Str "MO"); ("t", Json.Num t) ]
  | Runner.Crash t -> Json.Obj [ ("o", Json.Str "CRASH"); ("t", Json.Num t) ]

let outcome_of_json j =
  match
    ( Option.bind (Json.member "o" j) Json.to_string,
      Option.bind (Json.member "t" j) Json.to_number )
  with
  | Some "SAT", Some t -> Some (Runner.Solved (true, t))
  | Some "UNSAT", Some t -> Some (Runner.Solved (false, t))
  | Some "TO", Some t -> Some (Runner.Timeout t)
  | Some "MO", Some t -> Some (Runner.Memout t)
  | Some "CRASH", Some t -> Some (Runner.Crash t)
  | _ -> None

(* ----------------------------------------------------- stats (de)coding *)

let stats_to_json (s : Hqs.stats) =
  Json.Obj
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.Hqs.metrics));
    ]

(* older journal lines carry more keys next to [metrics] (a [degraded]
   array among them); they are ignored, so those lines still decode *)
let stats_of_json j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
      Some
        {
          Hqs.metrics =
            List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_number v)) kvs;
        }
  | _ -> None

(* ------------------------------------------------------------------ rows *)

type row = {
  outcome : Runner.outcome;
  stats : Hqs.stats option;
  cert : string option;
  attempts : int;
  worker_pid : int;
}

(* the solver's part of a row: the worker's result frame, and the
   [value] key of a journal line *)
let value_to_json outcome stats cert =
  Json.Obj
    ((("outcome", outcome_to_json outcome)
     :: (match stats with Some s -> [ ("stats", stats_to_json s) ] | None -> []))
    @ match cert with Some path -> [ ("cert", Json.Str path) ] | None -> [])

let value_of_json v =
  Option.map
    (fun outcome ->
      ( outcome,
        Option.bind (Json.member "stats" v) stats_of_json,
        Option.bind (Json.member "cert" v) Json.to_string ))
    (Option.bind (Json.member "outcome" v) outcome_of_json)

(* a pool result, whatever its status, maps to exactly one row: a value
   frame carries the worker's own classification; a wall kill or an
   out-of-memory death carries the pool's time and the stats of the
   partial registry delta the pool salvaged from the pipe, so those rows
   also report the data that explains the blowup *)
let row_of_result (r : Pool.result) =
  let salvaged () =
    match r.Pool.salvaged_metrics with
    | [] -> None
    | samples -> Some { Hqs.metrics = Obs.Metrics.to_assoc samples }
  in
  let outcome, stats, cert =
    match r.Pool.status with
    | Pool.Value v -> (
        match value_of_json v with
        | Some value -> value
        | None ->
            (* a well-formed frame with a malformed payload: treat like a
               protocol failure rather than inventing a verdict *)
            (Runner.Crash r.Pool.elapsed_s, None, None))
    | Pool.Timeout t -> (Runner.Timeout t, salvaged (), None)
    | Pool.Memout t -> (Runner.Memout t, salvaged (), None)
    | Pool.Crash t -> (Runner.Crash t, None, None)
  in
  { outcome; stats; cert; attempts = r.Pool.attempts; worker_pid = r.Pool.worker_pid }

let row_to_json row =
  Json.Obj
    [
      ("value", value_to_json row.outcome row.stats row.cert);
      ("attempts", Json.Num (float_of_int row.attempts));
      ("pid", Json.Num (float_of_int row.worker_pid));
    ]

(* older journal lines also carry the pool's status keys ([status],
   [elapsed_s], [log], [salvaged]) and, where the pool rather than the
   worker classified the task, a [null] value; the extra keys are
   ignored, and a [null] value is no row, so --resume runs that task
   again *)
let row_of_json j =
  let num key = Option.bind (Json.member key j) Json.to_number in
  match (Json.member "value" j, num "attempts", num "pid") with
  | Some v, Some attempts, Some pid ->
      Option.map
        (fun (outcome, stats, cert) ->
          { outcome; stats; cert; attempts = int_of_float attempts; worker_pid = int_of_float pid })
        (value_of_json v)
  | _ -> None

(* ---------------------------------------------------------------- worker *)

(* runs in the forked child: solve, then flatten the result to the IPC
   frame payload. The in-process wall, heap and node budgets govern the
   solve (a TO/MO is a *clean* frame that carries the call's stats); the
   pool's wall kill is the backstop for runs that wedge. *)
let worker config item solver =
  match solver with
  | Hqs_run ->
      let outcome, stats, cert =
        Runner.run_hqs ~config:config.hqs_config ?cert_dir:config.certify_dir
          ?mem_limit_mb:config.mem_limit_mb ~id:item.id ~timeout:config.timeout
          ~node_limit:config.node_limit item.pcnf
      in
      value_to_json outcome (Some stats) cert
  | Idq_run ->
      let outcome =
        Runner.run_idq ?mem_limit_mb:config.mem_limit_mb ~timeout:config.timeout
          ~node_limit:config.node_limit item.pcnf
      in
      value_to_json outcome None None

(* -------------------------------------------------------------- assembly *)

let assemble config item ~hqs ~idq =
  let soundness =
    match (hqs.outcome, idq.outcome) with
    | Runner.Solved (a, _), Runner.Solved (b, _) when a <> b ->
        Runner.Disagreement { hqs_sat = a; idq_sat = b }
    | _ -> Runner.Consistent
  in
  {
    Runner.id = item.id;
    family = item.family;
    hqs = hqs.outcome;
    idq = idq.outcome;
    hqs_config = config.hqs_config;
    hqs_stats = hqs.stats;
    soundness;
    attempts = hqs.attempts;
    worker_pid = Some hqs.worker_pid;
    cert_path = hqs.cert;
  }

(* ------------------------------------------------------------------- run *)

let run ?(config = default_config ~timeout:5.0 ~node_limit:200_000) ?journal ?resume
    ?on_progress items =
  let tasks = List.concat_map (fun item -> [ (item, Hqs_run); (item, Idq_run) ]) items in
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (item, solver) ->
      let id = task_id item solver in
      if Hashtbl.mem ids id then invalid_arg ("Sweep.run: duplicate task id " ^ id);
      Hashtbl.replace ids id ())
    tasks;
  (* every checksum-valid journal line of a known task that decodes to a
     row is a finished task this run does not repeat *)
  let rows = Hashtbl.create 64 in
  let journal_dropped =
    match resume with
    | None -> 0
    | Some path ->
        let { Exec.Journal.entries; dropped } = Exec.Journal.load path in
        List.fold_left
          (fun dropped { Exec.Journal.task_id; data } ->
            if not (Hashtbl.mem ids task_id) then dropped
            else
              match row_of_json data with
              | Some row ->
                  Hashtbl.replace rows task_id row;
                  dropped
              | None -> dropped + 1)
          dropped entries
  in
  let notify id row ~from_journal =
    Option.iter
      (fun f -> f { task = id; outcome = row.outcome; attempts = row.attempts; from_journal })
      on_progress
  in
  let pool = Pool.create config.exec in
  (* the wall kill is a backstop over the in-process budget: generous
     enough to never fire first *)
  let wall_s = (2.0 *. config.timeout) +. 10.0 in
  List.iter
    (fun (item, solver) ->
      let id = task_id item solver in
      match Hashtbl.find_opt rows id with
      | Some row -> notify id row ~from_journal:true
      | None -> Pool.submit pool ~wall_s ~id id (fun ~attempt:_ -> worker config item solver))
    tasks;
  let journaled = Hashtbl.length rows in
  let jnl = Option.map Exec.Journal.open_append journal in
  while not (Pool.idle pool) do
    let events, _, _ = Pool.wait pool 0.5 in
    List.iter
      (function
        | Pool.Crashed _ -> ()
        | Pool.Finished (id, r) ->
            let row = row_of_result r in
            Option.iter
              (fun j -> Exec.Journal.append j { Exec.Journal.task_id = id; data = row_to_json row })
              jnl;
            Hashtbl.replace rows id row;
            notify id row ~from_journal:false)
      events
  done;
  Option.iter Exec.Journal.close jnl;
  (* an idle pool has finished every task it was given *)
  let row item solver = Hashtbl.find rows (task_id item solver) in
  {
    results =
      List.map (fun item -> assemble config item ~hqs:(row item Hqs_run) ~idq:(row item Idq_run)) items;
    executed = Pool.spawned pool;
    journaled;
    journal_dropped;
  }
