(* perfbench: the HQS benchmark.

     perfbench/run.sh --workload W --seed N --seconds S --trace 0|1 [--runs K]

   Runs one workload (ladder, frontend, serve or sweep; see README.md)
   from the root of a checkout against the built hqs and certcheck
   binaries, checks every verdict against the generator's known answer,
   prints each metric as "name value unit n=samples", and prints as its
   last line one JSON object with the metrics BENCHMARK.json declares:
   the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
   A metric a workload does not exercise reads 0. Exit 0 when every
   checked operation was correct, 1 otherwise, 2 on usage errors.

   --runs K repeats the run with seeds N .. N+K-1 and closes with the
   run-agreement report: each metric's per-run values, their median and
   interquartile spread, flagged where the spread exceeds the metric's
   bound in BENCHMARK.json. *)

let hqs = "_build/default/bin/hqs_cli.exe"
let certcheck = "_build/default/bin/certcheck.exe"
let trace_dir = "perfbench/out"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------- declared metrics *)

type declared = { name : string; unit_ : string; bound : float option }

let declared ~trace =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error msg -> die "%s (run from the root of the checkout)" msg
  in
  let section = if trace then "per_layer" else "end_to_end" in
  let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string in
  match Obs.Json.parse text with
  | Error msg -> die "BENCHMARK.json: %s" msg
  | Ok j ->
      List.map
        (fun m ->
          match (str "name" m, str "unit" m) with
          | Some name, Some unit_ ->
              { name; unit_; bound = Option.bind (Obs.Json.member "bound" m) Obs.Json.to_number }
          | _ -> die "BENCHMARK.json: %s entry without a name or unit" section)
        (Option.value ~default:[] (Option.bind (Obs.Json.member section j) Obs.Json.to_list))

(* the workload's metrics in declaration order; one it does not measure
   reads 0 with no samples *)
let conform decls (ms : Ctx.metric list) =
  List.iter
    (fun (m : Ctx.metric) ->
      match List.find_opt (fun d -> String.equal d.name m.Ctx.name) decls with
      | None -> die "metric %s is not declared in BENCHMARK.json" m.Ctx.name
      | Some d when not (String.equal d.unit_ m.Ctx.unit_) ->
          die "metric %s: unit %s, BENCHMARK.json says %s" m.Ctx.name m.Ctx.unit_ d.unit_
      | Some _ -> ())
    ms;
  List.map
    (fun d ->
      match List.find_opt (fun (m : Ctx.metric) -> String.equal m.Ctx.name d.name) ms with
      | Some m -> m
      | None -> Ctx.metric ~n:0 d.name d.unit_ 0.0)
    decls

(* ----------------------------------------------------------- one run *)

let workloads = [ "ladder"; "frontend"; "serve"; "sweep" ]

let measure ~ctx ~workload ~trace =
  let trace_path = Filename.concat trace_dir (workload ^ ".trace.json") in
  match (workload, trace) with
  | "ladder", false -> Solves.timed ~ctx Instances.ladder
  | "ladder", true -> Solves.traced ~ctx ~trace_path Instances.ladder
  | "frontend", false -> Solves.timed ~ctx Instances.frontend
  | "frontend", true -> Solves.traced ~ctx ~trace_path Instances.frontend
  | "serve", false -> Queries.timed ~ctx
  | "serve", true -> Queries.traced ~ctx ~trace_path
  | "sweep", false -> Sweeps.timed ~ctx Instances.sweep
  | "sweep", true -> Sweeps.traced ~ctx ~trace_path Instances.sweep
  | w, _ -> die "unknown workload %s (one of %s)" w (String.concat ", " workloads)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run_once ~decls ~workload ~seed ~seconds ~trace =
  let work = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ()) in
  mkdir_p work;
  mkdir_p trace_dir;
  let ctx =
    {
      Ctx.work;
      hqs;
      certcheck;
      rng = Hqs_util.Rng.create seed;
      seconds;
      attempted = 0;
      failures = [];
    }
  in
  Printf.printf "perfbench %s seed %d, %.0f s budget%s\n%!" workload seed seconds
    (if trace then ", traced" else "");
  let ms =
    Fun.protect
      ~finally:(fun () ->
        Proc.reap_all ();
        remove_tree work)
      (fun () -> measure ~ctx ~workload ~trace)
  in
  let ms = conform decls ms in
  List.iter
    (fun (m : Ctx.metric) ->
      Printf.printf "%s %.6g %s n=%d\n" m.Ctx.name m.Ctx.value m.Ctx.unit_ m.Ctx.n)
    ms;
  Printf.printf "%d operations checked, %d failed\n%!" ctx.Ctx.attempted
    (List.length ctx.Ctx.failures);
  (ctx, ms)

let result_json (ctx : Ctx.t) ms =
  let open Obs.Json in
  Obj
    [
      ("correct", Bool (ctx.Ctx.failures = []));
      ("attempted", Num (float_of_int (max 1 ctx.Ctx.attempted)));
      ("failed", Num (float_of_int (List.length ctx.Ctx.failures)));
      ( "metrics",
        Obj
          (List.map
             (fun (m : Ctx.metric) ->
               ( m.Ctx.name,
                 Obj
                   [
                     ("value", Num (if Float.is_nan m.Ctx.value then 0.0 else m.Ctx.value));
                     ("unit", Str m.Ctx.unit_);
                   ] ))
             ms) );
    ]

(* ------------------------------------------------- run agreement *)

let agreement decls runs =
  let k = List.length runs in
  Printf.printf "\nrun agreement over %d runs: per-run values, median, IQR/median\n" k;
  let flagged =
    List.filter
      (fun d ->
        let vs =
          List.map
            (fun (_, ms) ->
              (List.find (fun (m : Ctx.metric) -> String.equal m.Ctx.name d.name) ms).Ctx.value)
            runs
        in
        let med = Stats.median vs in
        let spread = if med = 0.0 then 0.0 else Stats.iqr_share vs in
        let over = match d.bound with Some b -> spread > b | None -> false in
        Printf.printf "  %-30s %s | median %.6g %s  spread %.1f%%%s%s\n" d.name
          (String.concat " " (List.map (Printf.sprintf "%.4g") vs))
          med d.unit_ (100.0 *. spread)
          (match d.bound with Some b -> Printf.sprintf " (bound %.0f%%)" (100.0 *. b) | None -> "")
          (if over then "  SPREAD OVER BOUND" else "");
        over)
      decls
  in
  flagged = []

(* -------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let runs = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  ladder, frontend, serve or sweep");
      ("--seed", Arg.Set_int seed, "N  seed of the instance order and the serve stream");
      ("--seconds", Arg.Set_float seconds, "S  measuring budget of a run (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced layer pass (1)");
      ("--runs", Arg.Set_int runs, "K  repeat K times with successive seeds and report agreement");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--runs K]";
  if not (List.mem !workload workloads) then
    die "--workload must be one of %s" (String.concat ", " workloads);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !runs < 1 then die "--runs must be at least 1";
  List.iter (fun b -> if not (Sys.file_exists b) then die "%s is not built" b) [ hqs; certcheck ];
  let trace = !trace = 1 in
  let decls = declared ~trace in
  let stop _ =
    Proc.reap_all ();
    exit 143
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  let results =
    List.init !runs (fun i ->
        run_once ~decls ~workload:!workload ~seed:(!seed + i) ~seconds:!seconds ~trace)
  in
  let agree = !runs = 1 || agreement decls results in
  let failed = List.exists (fun ((c : Ctx.t), _) -> c.Ctx.failures <> []) results in
  let ctx, ms = List.nth results (!runs - 1) in
  print_endline (Obs.Json.render (result_json ctx ms));
  exit (if failed || not agree then 1 else 0)
