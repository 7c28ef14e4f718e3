(* benchdiff: compare a candidate run of the layer benchmark with the
   committed baseline (BENCH_layers.json) and fail on regressions.

   Both files map a perfbench workload to a list of runs, each run being
   the last stdout line of
   [bash perfbench/run.sh --workload W --seed N --trace 1]:

     { "ladder": [ {"correct": true, ..., "metrics": {"qbf.elim_s":
                    {"value": 0.21, "unit": "s"}, ...}}, ... ],
       "frontend": [ ... ] }

   Each file flattens to <workload>/<metric> -> the median over its runs.
   A metric's direction and unit come from the per_layer list of
   BENCHMARK.json in the current directory (the root of the checkout),
   where every metric is declared. A key regresses when the candidate's
   median is worse than the baseline's by more than
   max(fixed tolerance, interquartile spread of the baseline runs); the
   fixed tolerance is 15% + 2 ms for seconds, 15% for rates, 10% + 8 for
   counts and 10% for ratios. A candidate run with failed operations is
   a regression too. --inflate REGEX=F multiplies matching candidate
   medians, so CI can prove the gate trips on a seeded regression.

   Exit 0 when no key regresses, 1 on any regression (each is printed),
   2 on usage or parse errors. *)

open Cmdliner

module Json = Obs.Json

let die fmt = Printf.ksprintf (fun msg -> Printf.eprintf "benchdiff: %s\n" msg; exit 2) fmt

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> die "%s" msg
  | text -> (
      match Json.parse text with Ok j -> j | Error msg -> die "%s: invalid JSON: %s" path msg)

type declared = { lower_is_better : bool; rel : float; abs : float }

(* the per_layer metrics of BENCHMARK.json, with the fixed tolerance of
   their unit *)
let declared () =
  if not (Sys.file_exists "BENCHMARK.json") then
    die "no BENCHMARK.json here: run from the root of the checkout";
  let str k j = Option.bind (Json.member k j) Json.to_string in
  let entries =
    Option.bind (Json.member "per_layer" (read_json "BENCHMARK.json")) Json.to_list
    |> Option.value ~default:[]
  in
  List.map
    (fun m ->
      match (str "name" m, str "unit" m, str "better" m) with
      | Some name, Some unit_, Some better ->
          let rel, abs =
            match unit_ with
            | "s" -> (0.15, 0.002)
            | "1/s" -> (0.15, 0.)
            | "count" -> (0.10, 8.)
            | "ratio" -> (0.10, 0.)
            | u -> die "BENCHMARK.json: metric %s has unknown unit %s" name u
          in
          (name, { lower_is_better = better = "lower"; rel; abs })
      | _ -> die "BENCHMARK.json: per_layer entry without a name, unit or better")
    entries

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Q3 - Q1, interpolated like perfbench's Stats.quartiles (Python's
   statistics.quantiles default), so it matches the spread that
   perfbench's --runs report prints; 0 below 2 runs *)
let iqr xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.
  else
    let cut i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    cut 3 -. cut 1

(* workload -> its runs *)
let load path =
  match read_json path with
  | Json.Obj workloads ->
      List.map
        (fun (w, runs) ->
          match Json.to_list runs with
          | Some runs -> (w, runs)
          | None -> die "%s: %s is not a list of runs" path w)
        workloads
  | _ -> die "%s: expected an object keyed by workload" path

(* the metric's value in every run that reports it *)
let values name runs =
  List.filter_map
    (fun run ->
      let ( let* ) = Option.bind in
      let* metrics = Json.member "metrics" run in
      let* m = Json.member name metrics in
      let* v = Json.member "value" m in
      Json.to_number v)
    runs

let parse_inflate spec =
  match String.index_opt spec '=' with
  | None -> die "--inflate %s: expected REGEX=FACTOR" spec
  | Some i -> (
      let re = String.sub spec 0 i in
      let f = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt f with
      | None -> die "--inflate %s: %s is not a number" spec f
      | Some factor -> (
          match Str.regexp re with
          | re -> (re, factor)
          | exception Failure msg -> die "--inflate %s: bad regex: %s" spec msg))

let inflated inflations key v =
  List.fold_left
    (fun v (re, factor) ->
      if Str.string_match re key 0 && Str.match_end () = String.length key then v *. factor else v)
    v inflations

let diff baseline candidate verbose inflate =
  let inflations = List.map parse_inflate inflate in
  let decls = declared () in
  let base = load baseline and cand = load candidate in
  let regressions = ref 0 and compared = ref 0 and missing = ref 0 in
  let regression fmt = incr regressions; Printf.printf ("REGRESSION " ^^ fmt ^^ "\n") in
  List.iter
    (fun (w, runs) ->
      List.iteri
        (fun i run ->
          if Json.member "correct" run <> Some (Json.Bool true) then
            regression "%s run %d: failed operations" w (i + 1))
        runs)
    cand;
  List.iter
    (fun (w, base_runs) ->
      match List.assoc_opt w cand with
      | None -> Printf.printf "note %s: workload not in the candidate\n" w
      | Some cand_runs ->
          List.iter
            (fun (name, d) ->
              let key = w ^ "/" ^ name in
              match (values name base_runs, values name cand_runs) with
              | [], _ -> ()
              | _, [] ->
                  incr missing;
                  Printf.printf "note %s: present in baseline only\n" key
              | old_runs, new_runs ->
                  incr compared;
                  let old_v = median old_runs
                  and new_v = inflated inflations key (median new_runs) in
                  let allowed = Float.max ((Float.abs old_v *. d.rel) +. d.abs) (iqr old_runs) in
                  let worse = if d.lower_is_better then new_v -. old_v else old_v -. new_v in
                  if worse > allowed then
                    regression "%s: %g -> %g (%+.1f%%, tolerance %g)" key old_v new_v
                      (if old_v <> 0. then (new_v -. old_v) /. Float.abs old_v *. 100.
                       else infinity)
                      allowed
                  else if verbose then Printf.printf "ok %s: %g -> %g\n" key old_v new_v)
            decls)
    base;
  Printf.printf "benchdiff: %d keys compared, %d regression(s), %d missing\n%!" !compared
    !regressions !missing;
  exit (if !regressions > 0 then 1 else 0)

let cmd =
  let pos_file i docv doc = Arg.(required & pos i (some file) None & info [] ~docv ~doc) in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:"compare a layer-benchmark run with the committed baseline and exit 1 on regressions")
    Term.(
      const diff
      $ pos_file 0 "BASELINE" "committed baseline (BENCH_layers.json)"
      $ pos_file 1 "CANDIDATE" "candidate runs to gate (same shape)"
      $ Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print every compared key")
      $ Arg.(
          value
          & opt_all string []
          & info [ "inflate" ] ~docv:"REGEX=FACTOR"
              ~doc:
                "multiply candidate medians whose full key matches REGEX by FACTOR before \
                 comparing — seeds a synthetic regression so CI can prove the gate trips"))

let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1
