module Json = Obs.Json
module Sup = Exec.Supervisor

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
  hqs_config : Hqs.config option;
  exec : Sup.config;
  certify_dir : string option;
}

let default_config ~timeout ~node_limit =
  { timeout; node_limit; hqs_config = None; exec = Sup.default_config; certify_dir = None }

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
      ("degraded", Json.Arr (List.map (fun d -> Json.Str d) s.Hqs.degraded));
    ]

(* older journal lines carry more keys next to [metrics] and [degraded];
   they are ignored, so those lines still decode *)
let stats_of_json j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
      Some
        {
          Hqs.metrics =
            List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_number v)) kvs;
          degraded =
            (match Option.bind (Json.member "degraded" j) Json.to_list with
            | None -> []
            | Some l -> List.filter_map Json.to_string l);
        }
  | _ -> None

(* ---------------------------------------------------------------- worker *)

(* runs in the forked child: solve, then flatten the result to the IPC
   frame payload. The in-process timeout/node budget still governs the
   solve (a TO/MO is a *clean* frame); the kernel limits of the executor
   are the backstop for runs that wedge. *)
let worker config (item, solver) =
  match solver with
  | Hqs_run ->
      let outcome, stats, cert =
        match config.certify_dir with
        | None ->
            let outcome, stats =
              Runner.run_hqs ?config:config.hqs_config ~timeout:config.timeout
                ~node_limit:config.node_limit item.pcnf
            in
            (outcome, stats, None)
        | Some dir ->
            Runner.run_hqs_certified ?config:config.hqs_config ~timeout:config.timeout
              ~node_limit:config.node_limit ~dir ~id:item.id item.pcnf
      in
      Json.Obj
        ([
           ("outcome", outcome_to_json outcome);
           ("stats", match stats with Some s -> stats_to_json s | None -> Json.Null);
         ]
        @ match cert with Some path -> [ ("cert", Json.Str path) ] | None -> [])
  | Idq_run ->
      let outcome =
        Runner.run_idq ~timeout:config.timeout ~node_limit:config.node_limit item.pcnf
      in
      Json.Obj [ ("outcome", outcome_to_json outcome) ]

(* -------------------------------------------------------------- assembly *)

(* a supervisor completion, whatever its shape, maps to exactly one
   Runner.outcome: a clean frame carries the worker's own classification;
   supervisor-level deaths carry their wall time *)
let outcome_of_completion (c : Sup.completion) =
  match c.Sup.status with
  | Sup.Timeout t -> Runner.Timeout t
  | Sup.Memout t -> Runner.Memout t
  | Sup.Crash t -> Runner.Crash t
  | Sup.Value v -> (
      match Option.bind (Json.member "outcome" v) outcome_of_json with
      | Some o -> o
      | None ->
          (* a well-formed frame with a malformed payload: treat like a
             protocol failure rather than inventing a verdict *)
          Runner.Crash c.Sup.elapsed_s)

(* a timed-out or memory-killed worker never sends its stats record,
   but the supervisor salvages its last partial registry delta from the
   pipe: the same record built from those samples, so TO/MO lines report
   exactly the data that explains the blowup instead of going blank *)
let stats_of_completion (c : Sup.completion) =
  match c.Sup.status with
  | Sup.Value v -> Option.bind (Json.member "stats" v) stats_of_json
  | Sup.Timeout _ | Sup.Memout _ -> (
      match c.Sup.salvaged_metrics with
      | [] -> None
      | samples -> Some { Hqs.metrics = Obs.Metrics.to_assoc samples; degraded = [] })
  | Sup.Crash _ -> None

let assemble config item ~hqs:hc ~idq:ic =
  let hqs = outcome_of_completion hc in
  let idq = outcome_of_completion ic in
  let hqs_stats = stats_of_completion hc in
  let cert_path =
    match hc.Sup.status with
    | Sup.Value v -> Option.bind (Json.member "cert" v) Json.to_string
    | Sup.Timeout _ | Sup.Memout _ | Sup.Crash _ -> None
  in
  let soundness =
    match (hqs, idq) with
    | Runner.Solved (a, _), Runner.Solved (b, _) when a <> b ->
        Runner.Disagreement { hqs_sat = a; idq_sat = b }
    | _ -> Runner.Consistent
  in
  {
    Runner.id = item.id;
    family = item.family;
    sat_expected = None;
    hqs;
    idq;
    hqs_config = Option.value config.hqs_config ~default:Hqs.default_config;
    hqs_stats;
    soundness;
    attempts = hc.Sup.attempts;
    worker_pid = (if hc.Sup.worker_pid = 0 then None else Some hc.Sup.worker_pid);
    cert_path;
  }

(* ------------------------------------------------------------------- run *)

let run ?(config = default_config ~timeout:5.0 ~node_limit:200_000) ?journal ?resume
    ?on_progress items =
  let tasks =
    List.concat_map
      (fun item -> [ (task_id item Hqs_run, (item, Hqs_run)); (task_id item Idq_run, (item, Idq_run)) ])
      items
  in
  let on_complete =
    Option.map
      (fun f (c : Sup.completion) ->
        f
          {
            task = c.Sup.task_id;
            outcome = outcome_of_completion c;
            attempts = c.Sup.attempts;
            from_journal = c.Sup.from_journal;
          })
      on_progress
  in
  let report =
    Sup.run ~config:config.exec ?journal ?resume ?on_complete ~worker:(worker config) tasks
  in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (c : Sup.completion) -> Hashtbl.replace by_id c.Sup.task_id c) report.Sup.completions;
  {
    results =
      List.map
        (fun item ->
          let find solver =
            let id = task_id item solver in
            match Hashtbl.find_opt by_id id with
            | Some c -> c
            | None -> invalid_arg ("Sweep.run: missing completion for " ^ id)
          in
          assemble config item ~hqs:(find Hqs_run) ~idq:(find Idq_run))
        items;
    executed = report.Sup.executed;
    journaled = report.Sup.journaled;
    journal_dropped = report.Sup.journal_dropped;
  }
