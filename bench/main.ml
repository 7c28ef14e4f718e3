(* Benchmark harness: regenerates the paper's evaluation artifacts.

   - Table I: per-family solved/unsolved breakdown, HQS vs iDQ
   - Fig. 4: per-instance runtime scatter (data + ASCII log-log plot)
   - Headline claims of Section IV
   - Ablations of the design choices called out in DESIGN.md
   - Bechamel micro-benchmarks of the core operations

   Environment knobs:
     BENCH_TIMEOUT  per-instance wall-clock seconds   (default 5)
     BENCH_NODES    AIG node budget = memout emulation (default 400000)
     BENCH_QUICK=1  small suite for smoke runs
     BENCH_MICRO=0  skip the Bechamel section
     BENCH_OBS_ONLY=1  only write the observability baseline, then exit
     BENCH_OBS_OUT  path of the baseline file (default BENCH_obs.json)
     BENCH_DEP_SCHEME  dependency scheme for the suite runs: trivial | rp
                    (default: the solver default, rp)
     BENCH_ANALYSIS_ONLY=1  only write the dependency-scheme baseline
     BENCH_ANALYSIS_OUT  path of that file (default BENCH_analysis.json)
     BENCH_INPROC_ONLY=1  only write the inprocessing-engine baseline
     BENCH_INPROC_OUT  path of that file (default BENCH_inproc.json)
     BENCH_JOBS     supervised sweep workers           (default 1)
     BENCH_JOURNAL  append completed tasks to this crash-safe JSONL file
     BENCH_RESUME   skip tasks already journaled in this file *)

module Fam = Circuit.Families
module R = Harness.Runner

let env_float name default =
  match Sys.getenv_opt name with Some s -> float_of_string s | None -> default

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let env_bool name default =
  match Sys.getenv_opt name with Some ("0" | "false") -> false | Some _ -> true | None -> default

let timeout = env_float "BENCH_TIMEOUT" 5.0
let node_limit = env_int "BENCH_NODES" 400_000
let quick = env_bool "BENCH_QUICK" false

let dep_scheme =
  match Sys.getenv_opt "BENCH_DEP_SCHEME" with
  | None | Some "" -> Analysis.Scheme.default
  | Some s -> (
      match Analysis.Scheme.of_string s with
      | Some t -> t
      | None ->
          Printf.eprintf "BENCH_DEP_SCHEME: unknown scheme %S (trivial|rp)\n" s;
          exit 2)

let bench_hqs_config = { Hqs.default_config with Hqs.dep_scheme }

(* ------------------------------------------------------------- the suite *)

(* scaled-down analogue of the paper's 1820 instances; the SAT/UNSAT mix
   is UNSAT-heavy, as in Table I *)
let suite () =
  let adder =
    List.concat_map
      (fun bits ->
        List.concat_map
          (fun boxes ->
            Fam.adder ~bits ~boxes ~fault:true
            :: (if boxes <= 2 then [ Fam.adder ~bits ~boxes ~fault:false ] else []))
          [ 1; 2; 3 ])
      [ 1; 2; 3; 4 ]
    @ [
        Fam.adder ~bits:5 ~boxes:1 ~fault:true;
        Fam.adder ~bits:5 ~boxes:2 ~fault:true;
        Fam.adder ~bits:5 ~boxes:1 ~fault:false;
        Fam.adder ~bits:5 ~boxes:2 ~fault:false;
      ]
  in
  let chain_family make sizes =
    List.concat_map
      (fun cells ->
        [
          make ~cells ~boxes:1 ~fault:true;
          make ~cells ~boxes:2 ~fault:true;
          make ~cells ~boxes:2 ~fault:false;
        ])
      sizes
    @ [ make ~cells:16 ~boxes:3 ~fault:true; make ~cells:16 ~boxes:3 ~fault:false ]
  in
  let bitcell = chain_family (fun ~cells ~boxes ~fault -> Fam.bitcell ~cells ~boxes ~fault)
      [ 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  let lookahead = chain_family (fun ~cells ~boxes ~fault -> Fam.lookahead ~cells ~boxes ~fault)
      [ 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  let pec_xor =
    List.concat_map
      (fun length ->
        [ Fam.pec_xor ~length ~boxes:1 ~fault:true; Fam.pec_xor ~length ~boxes:2 ~fault:true ])
      [ 3; 4; 5; 6; 8; 10; 12 ]
    @ List.map (fun length -> Fam.pec_xor ~length ~boxes:2 ~fault:false) [ 3; 4; 5; 6; 8; 10 ]
  in
  let z4 =
    List.concat_map
      (fun add_bits ->
        List.concat_map
          (fun boxes ->
            [ Fam.z4 ~add_bits ~boxes ~fault:true; Fam.z4 ~add_bits ~boxes ~fault:false ])
          [ 1; 2; 3 ])
      [ 1; 2 ]
    @ [
        Fam.z4 ~add_bits:3 ~boxes:1 ~fault:true;
        Fam.z4 ~add_bits:3 ~boxes:1 ~fault:false;
        Fam.z4 ~add_bits:3 ~boxes:2 ~fault:true;
        Fam.z4 ~add_bits:3 ~boxes:2 ~fault:false;
      ]
  in
  let comp =
    List.concat_map
      (fun bits ->
        [ Fam.comp ~bits ~boxes:1 ~fault:true; Fam.comp ~bits ~boxes:2 ~fault:true ])
      [ 2; 4; 6; 8; 10; 12 ]
    @ List.map (fun bits -> Fam.comp ~bits ~boxes:2 ~fault:false) [ 2; 4; 6; 8; 10 ]
    @ [
        Fam.comp ~bits:12 ~boxes:3 ~fault:false;
        Fam.comp ~bits:14 ~boxes:3 ~fault:false;
        Fam.comp ~bits:14 ~boxes:3 ~fault:true;
        Fam.comp ~bits:16 ~boxes:3 ~fault:true;
        Fam.comp ~bits:16 ~boxes:3 ~fault:false;
      ]
  in
  let c432 =
    List.concat_map
      (fun lines ->
        List.concat_map
          (fun boxes ->
            [
              Fam.c432 ~groups:3 ~lines ~boxes ~fault:true;
              Fam.c432 ~groups:3 ~lines ~boxes ~fault:false;
            ])
          [ 1; 2 ])
      [ 2; 3; 5; 7 ]
    @ [
        Fam.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:true;
        Fam.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:false;
        Fam.c432 ~groups:3 ~lines:9 ~boxes:3 ~fault:true;
        Fam.c432 ~groups:3 ~lines:9 ~boxes:3 ~fault:false;
      ]
  in
  let all = adder @ bitcell @ lookahead @ pec_xor @ z4 @ comp @ c432 in
  if quick then
    List.filteri (fun i _ -> i mod 4 = 0) all
  else all

(* ------------------------------------------------------------ experiment *)

let short = function
  | R.Solved (true, t) -> Printf.sprintf "SAT %.2fs" t
  | R.Solved (false, t) -> Printf.sprintf "UNSAT %.2fs" t
  | R.Timeout _ -> "TO"
  | R.Memout _ -> "MO"
  | R.Crash _ -> "CRASH"

(* every (instance, solver) task runs in its own forked worker
   under the supervisor, so one wedged or crashing solve cannot take the
   whole benchmark down; the kernel wall limit is a backstop over the
   in-process timeout *)
let run_suite instances =
  let jobs = env_int "BENCH_JOBS" 1 in
  let journal = Sys.getenv_opt "BENCH_JOURNAL" in
  let resume = Sys.getenv_opt "BENCH_RESUME" in
  let config =
    {
      (Harness.Sweep.default_config ~timeout ~node_limit) with
      Harness.Sweep.hqs_config = Some bench_hqs_config;
      exec =
        {
          Exec.Supervisor.default_config with
          Exec.Supervisor.jobs;
          limits = { Exec.Limits.none with Exec.Limits.wall_s = Some ((2.0 *. timeout) +. 10.0) };
        };
    }
  in
  let n = 2 * List.length instances in
  let count = ref 0 in
  let on_progress (p : Harness.Sweep.progress) =
    incr count;
    Printf.eprintf "[%3d/%d] %-32s %-12s%s\n%!" !count n p.Harness.Sweep.task
      (short p.Harness.Sweep.outcome)
      (if p.Harness.Sweep.from_journal then " (journal)"
       else if p.Harness.Sweep.attempts > 1 then Printf.sprintf " (%d attempts)" p.Harness.Sweep.attempts
       else "")
  in
  let rep = Harness.Sweep.run_instances ~config ?journal ?resume ~on_progress instances in
  Printf.eprintf "sweep: %d tasks executed, %d from journal%s\n%!" rep.Harness.Sweep.executed
    rep.Harness.Sweep.journaled
    (if rep.Harness.Sweep.journal_dropped > 0 then
       Printf.sprintf ", %d torn journal lines dropped" rep.Harness.Sweep.journal_dropped
     else "");
  rep.Harness.Sweep.results

(* ------------------------------------------------------------- ablations *)

let ablations () =
  let cases =
    [
      Fam.adder ~bits:3 ~boxes:2 ~fault:true;
      Fam.adder ~bits:3 ~boxes:2 ~fault:false;
      Fam.bitcell ~cells:8 ~boxes:2 ~fault:true;
      Fam.bitcell ~cells:8 ~boxes:2 ~fault:false;
      Fam.lookahead ~cells:8 ~boxes:2 ~fault:false;
      Fam.pec_xor ~length:8 ~boxes:2 ~fault:true;
      Fam.comp ~bits:8 ~boxes:2 ~fault:true;
      Fam.c432 ~groups:3 ~lines:3 ~boxes:2 ~fault:true;
    ]
  in
  let configs =
    [
      ("default", Hqs.default_config);
      ("greedy-set", { Hqs.default_config with use_maxsat = false });
      ("no-unitpure", { Hqs.default_config with use_unitpure = false });
      ( "no-gates",
        {
          Hqs.default_config with
          preprocess = { Dqbf.Preprocess.default_config with gate_detection = false };
        } );
      ("no-fraig", { Hqs.default_config with use_fraig = false });
      ("expand-all", { Hqs.default_config with mode = Hqs.Expand_all });
      ("qdpll-qbf", { Hqs.default_config with qbf_backend = Hqs.Search_backend });
    ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%-24s" "instance");
  List.iter (fun (name, _) -> Buffer.add_string buf (Printf.sprintf " %12s" name)) configs;
  Buffer.add_string buf "\n";
  List.iter
    (fun inst ->
      Buffer.add_string buf (Printf.sprintf "%-24s" inst.Fam.id);
      List.iter
        (fun (_, config) ->
          let cell =
            match fst (R.run_hqs ~config ~timeout ~node_limit inst.Fam.pcnf) with
            | R.Solved (_, t) -> Printf.sprintf "%.3fs" t
            | R.Timeout _ -> "TO"
            | R.Memout _ -> "MO"
            | R.Crash _ -> "CRASH"
          in
          Buffer.add_string buf (Printf.sprintf " %12s" cell))
        configs;
      Buffer.add_string buf "\n")
    cases;
  Buffer.contents buf

(* ------------------------------------------------- observability baseline *)

(* One small instance per family, solved under tracing: per-phase wall
   times (span totals), the per-solve metric registry delta and the
   verdict land in BENCH_obs.json, so a perf regression in any one phase
   shows up as a diff against the committed baseline rather than only as
   a total-time drift. BENCH_OBS_ONLY=1 runs just this section. *)

let obs_cases () =
  [
    Fam.adder ~bits:2 ~boxes:2 ~fault:true;
    Fam.bitcell ~cells:4 ~boxes:2 ~fault:true;
    Fam.lookahead ~cells:4 ~boxes:2 ~fault:false;
    Fam.pec_xor ~length:4 ~boxes:2 ~fault:true;
    Fam.z4 ~add_bits:1 ~boxes:2 ~fault:true;
    Fam.comp ~bits:4 ~boxes:2 ~fault:true;
    Fam.c432 ~groups:3 ~lines:3 ~boxes:2 ~fault:false;
  ]

let time_ns_per_call f iters =
  let t0 = Hqs_util.Budget.now () in
  for _ = 1 to iters do
    f ()
  done;
  (Hqs_util.Budget.now () -. t0) *. 1e9 /. float_of_int iters

(* cost of a Span.with_ call while tracing is off, net of the thunk — the
   number behind the "disabled tracing is one branch" claim *)
let disabled_span_overhead_ns () =
  assert (not (Obs.Trace.enabled ()));
  let sink = ref 0 in
  let bare () = incr sink in
  let wrapped () = Obs.Span.with_ "bench.overhead" bare in
  let iters = 2_000_000 in
  ignore (time_ns_per_call wrapped (iters / 10));
  ignore (time_ns_per_call bare (iters / 10));
  let w = time_ns_per_call wrapped iters in
  let b = time_ns_per_call bare iters in
  Float.max 0.0 (w -. b)

let json_str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Per-family wall/phase/metric series derived from the same solves as
   BENCH_obs.json, in the shape bin/benchdiff consumes: one point per
   run, appended over time if regenerated with history. The committed
   copy is the regression-gate baseline. *)
let write_trajectory traj =
  let out =
    match Sys.getenv_opt "BENCH_TRAJECTORY_OUT" with
    | Some p -> p
    | None -> "BENCH_trajectory.json"
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"hqs-trajectory/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"timeout_s\": %g,\n" timeout);
  Buffer.add_string buf (Printf.sprintf "  \"node_limit\": %d,\n" node_limit);
  Buffer.add_string buf "  \"families\": {\n";
  let nf = List.length traj in
  List.iteri
    (fun i (family, series) ->
      Buffer.add_string buf (Printf.sprintf "    %s: {\n" (json_str family));
      let ns = List.length series in
      List.iteri
        (fun j (key, v) ->
          Buffer.add_string buf
            (Printf.sprintf "      %s: [ %g ]%s\n" (json_str key) v
               (if j < ns - 1 then "," else "")))
        series;
      Buffer.add_string buf (Printf.sprintf "    }%s\n" (if i < nf - 1 then "," else "")))
    traj;
  Buffer.add_string buf "  }\n}\n";
  let body = Buffer.contents buf in
  (match Obs.Json.parse body with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "trajectory baseline: generated invalid JSON (%s)\n%!" msg);
  let oc = open_out out in
  output_string oc body;
  close_out oc;
  Printf.printf "trajectory baseline written to %s\n" out

let obs_baseline () =
  let out = match Sys.getenv_opt "BENCH_OBS_OUT" with Some p -> p | None -> "BENCH_obs.json" in
  let overhead = disabled_span_overhead_ns () in
  let traj = ref [] in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"timeout_s\": %g,\n" timeout);
  Buffer.add_string buf (Printf.sprintf "  \"node_limit\": %d,\n" node_limit);
  Buffer.add_string buf (Printf.sprintf "  \"disabled_span_ns_per_call\": %.2f,\n" overhead);
  Buffer.add_string buf "  \"instances\": [\n";
  let cases = obs_cases () in
  let n = List.length cases in
  List.iteri
    (fun i inst ->
      Obs.Trace.reset ();
      Obs.Trace.start ();
      let before = Obs.Metrics.snapshot () in
      let budget = Hqs_util.Budget.of_seconds timeout in
      let config = { Hqs.default_config with node_limit = Some node_limit } in
      let t0 = Hqs_util.Budget.now () in
      let verdict =
        match Hqs.solve_pcnf ~config ~budget inst.Fam.pcnf with
        | Hqs.Sat, _ -> "SAT"
        | Hqs.Unsat, _ -> "UNSAT"
        | exception Hqs_util.Budget.Timeout -> "TO"
        | exception Hqs_util.Budget.Out_of_memory_budget -> "MO"
      in
      let elapsed = Hqs_util.Budget.now () -. t0 in
      Obs.Trace.stop ();
      let phases = Obs.Trace.totals () in
      let delta = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
      traj :=
        ( inst.Fam.family,
          (("wall_s", elapsed)
          :: List.map
               (fun t ->
                 (Printf.sprintf "phase.%s.total_s" t.Obs.Trace.span, t.Obs.Trace.total_s))
               phases)
          @ List.map
              (fun (name, v) -> (Printf.sprintf "metric.%s" name, v))
              (Obs.Metrics.to_assoc delta) )
        :: !traj;
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf
        (Printf.sprintf "      \"id\": %s, \"family\": %s, \"verdict\": %s, \"time_s\": %.4f,\n"
           (json_str inst.Fam.id) (json_str inst.Fam.family) (json_str verdict) elapsed);
      Buffer.add_string buf "      \"phases\": {\n";
      List.iteri
        (fun j t ->
          Buffer.add_string buf
            (Printf.sprintf "        %s: { \"calls\": %d, \"total_s\": %.4f, \"self_s\": %.4f }%s\n"
               (json_str t.Obs.Trace.span) t.Obs.Trace.calls t.Obs.Trace.total_s t.Obs.Trace.self_s
               (if j < List.length phases - 1 then "," else "")))
        phases;
      Buffer.add_string buf "      },\n";
      Buffer.add_string buf "      \"metrics\": {\n";
      let assoc = Obs.Metrics.to_assoc delta in
      List.iteri
        (fun j (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "        %s: %g%s\n" (json_str name) v
               (if j < List.length assoc - 1 then "," else "")))
        assoc;
      Buffer.add_string buf "      }\n";
      Buffer.add_string buf (Printf.sprintf "    }%s\n" (if i < n - 1 then "," else ""));
      Printf.eprintf "[obs %d/%d] %-28s %s %.3fs\n%!" (i + 1) n inst.Fam.id verdict elapsed)
    cases;
  Buffer.add_string buf "  ]\n}\n";
  let body = Buffer.contents buf in
  (match Obs.Json.parse body with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "obs baseline: generated invalid JSON (%s)\n%!" msg);
  let oc = open_out out in
  output_string oc body;
  close_out oc;
  Printf.printf "observability baseline written to %s (disabled span: %.1f ns/call)\n" out
    overhead;
  write_trajectory (List.rev !traj)

(* ---------------------------------------- dependency-scheme baseline *)

(* One small instance per family, solved under both schemes: verdicts
   must agree, and the per-family MaxSAT elimination-set delta (trivial
   vs rp) lands in BENCH_analysis.json so a regression in the static
   analyzer's pruning power shows up as a baseline diff.
   BENCH_ANALYSIS_ONLY=1 runs just this section. *)

let analysis_cases () =
  [
    Fam.adder ~bits:3 ~boxes:2 ~fault:true;
    Fam.bitcell ~cells:6 ~boxes:2 ~fault:true;
    Fam.lookahead ~cells:6 ~boxes:2 ~fault:false;
    Fam.pec_xor ~length:6 ~boxes:2 ~fault:true;
    Fam.z4 ~add_bits:1 ~boxes:2 ~fault:true;
    Fam.comp ~bits:6 ~boxes:2 ~fault:true;
    (* the family where resolution-path pruning has bite (boxes=3) *)
    Fam.c432 ~groups:3 ~lines:3 ~boxes:3 ~fault:false;
  ]

let analysis_baseline () =
  let out =
    match Sys.getenv_opt "BENCH_ANALYSIS_OUT" with
    | Some p -> p
    | None -> "BENCH_analysis.json"
  in
  let solve scheme pcnf =
    R.run_hqs
      ~config:{ Hqs.default_config with Hqs.dep_scheme = scheme }
      ~timeout ~node_limit pcnf
  in
  let verdict_str = function
    | R.Solved (true, _) -> "SAT"
    | R.Solved (false, _) -> "UNSAT"
    | R.Timeout _ -> "TO"
    | R.Memout _ -> "MO"
    | R.Crash _ -> "CRASH"
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"timeout_s\": %g,\n" timeout);
  Buffer.add_string buf (Printf.sprintf "  \"node_limit\": %d,\n" node_limit);
  Buffer.add_string buf "  \"instances\": [\n";
  let cases = analysis_cases () in
  let n = List.length cases in
  List.iteri
    (fun i inst ->
      let o_triv, s_triv = solve Analysis.Scheme.Trivial inst.Fam.pcnf in
      let o_rp, s_rp = solve Analysis.Scheme.Rp inst.Fam.pcnf in
      let metric name = Option.map (fun s -> int_of_float (Hqs.metric s name)) in
      let ms_triv = metric "hqs.maxsat_set" s_triv and ms_rp = metric "hqs.maxsat_set" s_rp in
      let delta =
        match (ms_triv, ms_rp) with Some a, Some b -> Some (a - b) | _ -> None
      in
      let pruned = metric "analysis.edges_pruned" s_rp in
      let linearized = Option.map (fun n -> n > 0) (metric "analysis.linearized" s_rp) in
      if verdict_str o_triv <> verdict_str o_rp then
        Printf.eprintf "analysis baseline: scheme verdicts differ on %s (%s vs %s)\n%!"
          inst.Fam.id (verdict_str o_triv) (verdict_str o_rp);
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf
        (Printf.sprintf "      \"id\": %s, \"family\": %s,\n" (json_str inst.Fam.id)
           (json_str inst.Fam.family));
      Buffer.add_string buf
        (Printf.sprintf "      \"verdict_trivial\": %s, \"verdict_rp\": %s,\n"
           (json_str (verdict_str o_triv))
           (json_str (verdict_str o_rp)));
      let icell = Harness.Report.json_int_cell and bcell = Harness.Report.json_bool_cell in
      Buffer.add_string buf
        (Printf.sprintf
           "      \"maxsat_set_trivial\": %s, \"maxsat_set_rp\": %s, \
            \"maxsat_set_delta\": %s,\n"
           (icell ms_triv) (icell ms_rp) (icell delta));
      Buffer.add_string buf
        (Printf.sprintf "      \"edges_pruned\": %s, \"linearized\": %s\n" (icell pruned)
           (bcell linearized));
      Buffer.add_string buf (Printf.sprintf "    }%s\n" (if i < n - 1 then "," else ""));
      Printf.eprintf "[analysis %d/%d] %-28s %s maxsat %s->%s pruned %s\n%!" (i + 1) n
        inst.Fam.id (verdict_str o_rp) (icell ms_triv) (icell ms_rp) (icell pruned))
    cases;
  Buffer.add_string buf "  ]\n}\n";
  let body = Buffer.contents buf in
  (match Obs.Json.parse body with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "analysis baseline: generated invalid JSON (%s)\n%!" msg);
  let oc = open_out out in
  output_string oc body;
  close_out oc;
  Printf.printf "dependency-scheme baseline written to %s\n" out

(* ---------------------------------------- inprocessing-engine baseline *)

(* One small instance per family: the engine's clause/literal/variable
   deltas plus the solve-time movement with the engine on vs off land in
   BENCH_inproc.json, so a regression in the engine's reduction power
   (or a slowdown it causes) shows up as a baseline diff.
   BENCH_INPROC_ONLY=1 runs just this section. *)

let inproc_baseline () =
  let out =
    match Sys.getenv_opt "BENCH_INPROC_OUT" with
    | Some p -> p
    | None -> "BENCH_inproc.json"
  in
  let solve mode pcnf =
    R.run_hqs
      ~config:
        {
          Hqs.default_config with
          Hqs.preprocess =
            { Dqbf.Preprocess.default_config with Dqbf.Preprocess.inproc = mode };
        }
      ~timeout ~node_limit pcnf
  in
  let verdict_str = function
    | R.Solved (true, _) -> "SAT"
    | R.Solved (false, _) -> "UNSAT"
    | R.Timeout _ -> "TO"
    | R.Memout _ -> "MO"
    | R.Crash _ -> "CRASH"
  in
  let time_of = function
    | R.Solved (_, t) -> t
    | R.Timeout t | R.Memout t | R.Crash t -> t
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"timeout_s\": %g,\n" timeout);
  Buffer.add_string buf (Printf.sprintf "  \"node_limit\": %d,\n" node_limit);
  Buffer.add_string buf "  \"instances\": [\n";
  let cases = analysis_cases () in
  let n = List.length cases in
  List.iteri
    (fun i inst ->
      (* the engine alone at Full strength (probing + BVE), for the pure
         CNF deltas; the solve-time comparison below uses the default
         mode, matching what a plain solve runs *)
      let refuted, stats =
        match Dqbf.Preprocess.run_inproc ~mode:Inproc.Full inst.Fam.pcnf with
        | `Unsat -> (true, None)
        | `Done (_, res) -> (false, Some res.Inproc.stats)
      in
      let o_off, _ = solve Inproc.Off inst.Fam.pcnf in
      let o_on, _ = solve Inproc.On inst.Fam.pcnf in
      (match (o_off, o_on) with
      | R.Solved (a, _), R.Solved (b, _) when a <> b ->
          Printf.eprintf "inproc baseline: engine verdicts differ on %s\n%!" inst.Fam.id
      | _ -> ());
      let icell = Harness.Report.json_int_cell in
      let g f = Option.map f stats in
      Buffer.add_string buf "    {\n";
      Buffer.add_string buf
        (Printf.sprintf
           "      \"id\": %s, \"family\": %s, \"engine_mode\": \"full\", \
            \"engine_refuted\": %s,\n"
           (json_str inst.Fam.id) (json_str inst.Fam.family)
           (if refuted then "true" else "false"));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"clauses_before\": %s, \"clauses_after\": %s, \"lits_before\": %s, \
            \"lits_after\": %s, \"vars_before\": %s, \"vars_after\": %s,\n"
           (icell (g (fun s -> s.Inproc.clauses_before)))
           (icell (g (fun s -> s.Inproc.clauses_after)))
           (icell (g (fun s -> s.Inproc.lits_before)))
           (icell (g (fun s -> s.Inproc.lits_after)))
           (icell (g (fun s -> s.Inproc.vars_before)))
           (icell (g (fun s -> s.Inproc.vars_after))));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"units\": %s, \"scc_merges\": %s, \"subsumed\": %s, \
            \"strengthened\": %s, \"bve\": %s,\n"
           (icell (g (fun s -> s.Inproc.units)))
           (icell (g (fun s -> s.Inproc.scc_merges)))
           (icell (g (fun s -> s.Inproc.subsumed)))
           (icell (g (fun s -> s.Inproc.strengthened)))
           (icell (g (fun s -> s.Inproc.bve_eliminated))));
      Buffer.add_string buf
        (Printf.sprintf
           "      \"verdict_off\": %s, \"verdict_on\": %s, \"time_off_s\": %.3f, \
            \"time_on_s\": %.3f\n"
           (json_str (verdict_str o_off))
           (json_str (verdict_str o_on))
           (time_of o_off) (time_of o_on));
      Buffer.add_string buf (Printf.sprintf "    }%s\n" (if i < n - 1 then "," else ""));
      Printf.eprintf "[inproc %d/%d] %-28s %s clauses %s->%s lits %s->%s\n%!" (i + 1) n
        inst.Fam.id (verdict_str o_on)
        (icell (g (fun s -> s.Inproc.clauses_before)))
        (icell (g (fun s -> s.Inproc.clauses_after)))
        (icell (g (fun s -> s.Inproc.lits_before)))
        (icell (g (fun s -> s.Inproc.lits_after))))
    cases;
  Buffer.add_string buf "  ]\n}\n";
  let body = Buffer.contents buf in
  (match Obs.Json.parse body with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "inproc baseline: generated invalid JSON (%s)\n%!" msg);
  let oc = open_out out in
  output_string oc body;
  close_out oc;
  Printf.printf "inprocessing baseline written to %s\n" out

(* ---------------------------------------------------- Bechamel micro part *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* one Test.make per reproduced artifact, plus core-operation benches *)
  let t_table1 =
    Test.make ~name:"table1:hqs-adder-pec"
      (Staged.stage (fun () ->
           let inst = Fam.adder ~bits:2 ~boxes:2 ~fault:true in
           ignore (Hqs.solve_pcnf inst.Fam.pcnf)))
  in
  let t_fig4 =
    Test.make ~name:"fig4:idq-pec_xor"
      (Staged.stage (fun () ->
           let inst = Fam.pec_xor ~length:4 ~boxes:1 ~fault:true in
           ignore (Idq.solve_pcnf inst.Fam.pcnf)))
  in
  let t_aig =
    Test.make ~name:"aig:build-and-cofactor"
      (Staged.stage (fun () ->
           let man = Aig.Man.create () in
           let inputs = List.init 24 (Aig.Man.input man) in
           let root = Aig.Man.mk_and_list man inputs in
           let root = Aig.Man.mk_xor man root (List.hd inputs) in
           ignore (Aig.Man.cofactor man root ~var:3 ~value:true)))
  in
  let t_unitpure =
    let inst = Fam.comp ~bits:10 ~boxes:2 ~fault:true in
    let f =
      match Dqbf.Preprocess.run inst.Fam.pcnf with
      | Dqbf.Preprocess.Formula (f, _) -> f
      | Dqbf.Preprocess.Unsat -> assert false
    in
    Test.make ~name:"aig:unitpure-scan"
      (Staged.stage (fun () ->
           ignore (Aig.Unitpure.scan (Dqbf.Formula.man f) (Dqbf.Formula.matrix f))))
  in
  let t_maxsat =
    let inst = Fam.c432 ~groups:3 ~lines:5 ~boxes:2 ~fault:true in
    let f =
      match Dqbf.Preprocess.run inst.Fam.pcnf with
      | Dqbf.Preprocess.Formula (f, _) -> f
      | Dqbf.Preprocess.Unsat -> assert false
    in
    Test.make ~name:"maxsat:elimination-set"
      (Staged.stage (fun () -> ignore (Dqbf.Elimset.minimum_set f)))
  in
  let t_sat =
    Test.make ~name:"sat:random-3cnf"
      (Staged.stage (fun () ->
           let rng = Hqs_util.Rng.create 7 in
           let s = Sat.Solver.create () in
           Sat.Solver.ensure_var s 59;
           for _ = 1 to 250 do
             let lit () = Sat.Lit.mk (Hqs_util.Rng.int rng 60) ~neg:(Hqs_util.Rng.bool rng) in
             Sat.Solver.add_clause s [ lit (); lit (); lit () ]
           done;
           ignore (Sat.Solver.solve s)))
  in
  let tests =
    Test.make_grouped ~name:"micro" [ t_table1; t_fig4; t_aig; t_unitpure; t_maxsat; t_sat ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run";
  Hashtbl.iter
    (fun name res ->
      match Bechamel.Analyze.OLS.estimates res with
      | Some [ est ] -> Printf.printf "%-28s %16.0f\n" name est
      | _ -> Printf.printf "%-28s %16s\n" name "n/a")
    results

(* ------------------------------------------------------------------ main *)

let () =
  if env_bool "BENCH_OBS_ONLY" false then begin
    obs_baseline ();
    exit 0
  end;
  if env_bool "BENCH_ANALYSIS_ONLY" false then begin
    analysis_baseline ();
    exit 0
  end;
  if env_bool "BENCH_INPROC_ONLY" false then begin
    inproc_baseline ();
    exit 0
  end;
  Printf.printf "HQS reproduction benchmark (timeout %.1fs, node limit %d%s)\n\n" timeout
    node_limit
    (if quick then ", QUICK suite" else "");
  let instances = suite () in
  Printf.printf "suite: %d PEC instances across %d families\n\n" (List.length instances)
    (List.length Fam.all_families);
  let results = run_suite instances in
  print_endline "================ Table I (cf. paper Table I) ================";
  print_string (Harness.Report.table1 results);
  print_endline "";
  print_endline "================ Fig. 4 (runtime scatter) ====================";
  print_string (Harness.Report.fig4 ~timeout results);
  print_endline "";
  print_endline "================ Headline claims (Section IV) ================";
  print_string (Harness.Report.headline results);
  print_endline "";
  print_endline "================ Ablations (DESIGN.md A1) ====================";
  print_string (ablations ());
  print_endline "";
  print_endline "================ Dependency-scheme baseline ==================";
  analysis_baseline ();
  print_endline "";
  print_endline "================ Inprocessing-engine baseline ================";
  inproc_baseline ();
  print_endline "";
  print_endline "================ Observability baseline ======================";
  obs_baseline ();
  print_endline "";
  if env_bool "BENCH_MICRO" true then begin
    print_endline "================ Bechamel micro-benchmarks ===================";
    micro ()
  end;
  print_endline "";
  print_endline "raw per-instance results (CSV):";
  print_string (Harness.Report.csv results)
