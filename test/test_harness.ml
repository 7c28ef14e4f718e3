module R = Harness.Runner
module Fam = Circuit.Families

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_sat = Fam.pec_xor ~length:3 ~boxes:1 ~fault:false
let small_unsat = Fam.pec_xor ~length:3 ~boxes:1 ~fault:true

(* ---------------------------------------------------------------- runner *)

let run_hqs ~timeout ~node_limit (inst : Fam.instance) =
  let outcome, stats, _ = R.run_hqs ~id:inst.Fam.id ~timeout ~node_limit inst.Fam.pcnf in
  (outcome, stats)

(* an unfinished run still carries the call's own stats *)
let peak_nodes stats = Hqs.metric stats "hqs.peak_nodes"

let test_run_hqs_solves () =
  (match fst (run_hqs ~timeout:30.0 ~node_limit:400_000 small_sat) with
  | R.Solved (true, t) -> check "positive time" true (t >= 0.0)
  | _ -> Alcotest.fail "expected SAT");
  match fst (run_hqs ~timeout:30.0 ~node_limit:400_000 small_unsat) with
  | R.Solved (false, _) -> ()
  | _ -> Alcotest.fail "expected UNSAT"

let test_run_hqs_timeout () =
  let hard = Fam.adder ~bits:6 ~boxes:3 ~fault:false in
  let outcome, stats = run_hqs ~timeout:0.02 ~node_limit:50_000_000 hard in
  (match outcome with
  | R.Timeout _ -> ()
  | R.Memout _ -> () (* also acceptable on a tiny machine *)
  | R.Solved _ -> Alcotest.fail "expected an abort"
  | R.Crash _ -> Alcotest.fail "expected an abort, got a crash");
  check "peak nodes counted" true (peak_nodes stats > 0.0)

let test_run_hqs_memout () =
  let inst = Fam.adder ~bits:4 ~boxes:2 ~fault:false in
  let outcome, stats = run_hqs ~timeout:60.0 ~node_limit:64 inst in
  (match outcome with
  | R.Memout _ -> ()
  | R.Timeout _ -> Alcotest.fail "expected memout, got timeout"
  | R.Solved _ -> Alcotest.fail "expected memout, got solved"
  | R.Crash _ -> Alcotest.fail "expected memout, got crash");
  check "peak nodes reach the limit" true (peak_nodes stats >= 64.0)

let test_run_instance_agreement () =
  let config = Harness.Sweep.default_config ~timeout:20.0 ~node_limit:400_000 in
  let items = [ Harness.Sweep.item_of_instance small_unsat ] in
  match (Harness.Sweep.run ~config items).Harness.Sweep.results with
  | [ r ] ->
      check "both solved" true (R.is_solved r.R.hqs && R.is_solved r.R.idq);
      check "family" true (r.R.family = "pec_xor");
      check "consistent" true (r.R.soundness = R.Consistent);
      check "times readable" true (R.time_of r.R.hqs >= 0.0 && R.time_of r.R.idq >= 0.0);
      check "stats crossed the fork" true (Option.is_some r.R.hqs_stats)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

(* ---------------------------------------------------------------- report *)

let fake_results =
  [
    {
      R.id = "a1";
      family = "adder";
      hqs = R.Solved (true, 0.1);
      idq = R.Solved (true, 2.0);
      hqs_config = Hqs.default_config;
      hqs_stats = None;
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = None;
      cert_path = None;
    };
    {
      R.id = "a2";
      family = "adder";
      hqs = R.Solved (false, 0.2);
      idq = R.Timeout 5.0;
      hqs_config = Hqs.default_config;
      hqs_stats = Some { Hqs.metrics = [] };
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = None;
      cert_path = None;
    };
    {
      R.id = "b1";
      family = "bitcell";
      hqs = R.Memout 3.0;
      idq = R.Solved (false, 0.5);
      hqs_config = Hqs.default_config;
      hqs_stats = None;
      soundness = R.Consistent;
      attempts = 1;
      worker_pid = None;
      cert_path = None;
    };
  ]

let test_table1_shape () =
  let t = Harness.Report.table1 fake_results in
  let lines = String.split_on_char '\n' t in
  (* header + separator + 2 family rows + separator + total row + trailing *)
  check "adder row" true (List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "adder") lines);
  check "bitcell row" true
    (List.exists (fun l -> String.length l > 7 && String.sub l 0 7 = "bitcell") lines);
  check "total row" true (List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "total") lines);
  (* common time: only a1 is solved by both -> hqs 0.1, idq 2.0 *)
  check "hqs common time" true
    (let re = Str.regexp_string "0.10" in
     try
       ignore (Str.search_forward re t 0);
       true
     with Not_found -> false)

let test_fig4_contains_points () =
  let s = Harness.Report.fig4 ~timeout:5.0 fake_results in
  check "series row" true
    (let re = Str.regexp_string "a1" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  check "TO marker" true
    (let re = Str.regexp_string "TO" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  check "plot axis" true
    (let re = Str.regexp_string "iDQ time" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let test_headline_counts () =
  let s = Harness.Report.headline fake_results in
  check "solved counts" true
    (let re = Str.regexp_string "solved by HQS: 2, by iDQ: 2" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false);
  check "idq-not-hqs" true
    (let re = Str.regexp_string "solved by iDQ but not HQS: 1" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let test_csv_lines () =
  let s = Harness.Report.csv fake_results in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  check_int "header + one line per result" 4 (List.length lines);
  check "memout cell" true
    (let re = Str.regexp_string "MO" in
     try
       ignore (Str.search_forward re s 0);
       true
     with Not_found -> false)

let contains s needle =
  let re = Str.regexp_string needle in
  try
    ignore (Str.search_forward re s 0);
    true
  with Not_found -> false

let disagreeing_results =
  fake_results
  @ [
      {
        R.id = "x1";
        family = "adder";
        hqs = R.Solved (true, 0.1);
        idq = R.Solved (false, 0.1);
        hqs_config = Hqs.default_config;
        hqs_stats = None;
        soundness = R.Disagreement { hqs_sat = true; idq_sat = false };
        attempts = 1;
        worker_pid = None;
        cert_path = None;
      };
    ]

let test_disagreement_reported () =
  check "table flags alarm" true
    (contains (Harness.Report.table1 disagreeing_results) "SOUNDNESS ALARM");
  check "table names instance" true (contains (Harness.Report.table1 disagreeing_results) "x1");
  check "csv flags disagree" true (contains (Harness.Report.csv disagreeing_results) "DISAGREE");
  check "headline flags alarm" true
    (contains (Harness.Report.headline disagreeing_results) "disagreements: 1");
  (* clean results stay quiet *)
  check "no alarm when consistent" false
    (contains (Harness.Report.table1 fake_results) "SOUNDNESS ALARM")

let crashy_results =
  fake_results
  @ [
      {
        R.id = "c1";
        family = "bitcell";
        hqs = R.Crash 0.4;
        idq = R.Solved (false, 0.5);
        hqs_config = Hqs.default_config;
        hqs_stats = None;
        soundness = R.Consistent;
        attempts = 3;
        worker_pid = Some 1234;
        cert_path = None;
      };
    ]

let test_crash_reported () =
  let t = Harness.Report.table1 crashy_results in
  check "table names quarantined instance" true (contains t "CRASH: 1 instance(s)");
  check "table names id" true (contains t "c1");
  let s = Harness.Report.csv crashy_results in
  check "csv crash outcome cell" true (contains s "CRASH,0.400");
  check "csv executor cells" true (contains s ",crash,3,1234");
  check "fig4 crash rail" true (contains (Harness.Report.fig4 crashy_results) "CR");
  (* a crash counts as unsolved in the headline *)
  check "headline unchanged solved count" true
    (contains (Harness.Report.headline crashy_results) "solved by HQS: 2")

let test_csv_executor_columns () =
  let s = Harness.Report.csv fake_results in
  let header = List.hd (String.split_on_char '\n' s) in
  (* pre-existing prefix is byte-stable; the executor block is appended *)
  check "stable prefix" true
    (let prefix = "id,family,hqs_outcome,hqs_time,idq_outcome,idq_time,check" in
     let n = String.length prefix in
     String.length header > n && String.sub header 0 n = prefix);
  check "executor, analysis, inproc then cert columns last" true
    (let suffix =
       ",outcome,attempts,worker_pid,hqs_dep_scheme,hqs_analysis_edges_pruned,hqs_analysis_linearized,hqs_inproc_mode,hqs_inproc_rounds,hqs_inproc_units,hqs_inproc_scc_merges,hqs_inproc_subsumed,hqs_inproc_strengthened,hqs_inproc_clauses_removed,hqs_inproc_lits_removed,hqs_cert_status,cert"
     in
     let n = String.length header and m = String.length suffix in
     n > m && String.sub header (n - m) m = suffix);
  check "in-process rows: solved, 1 attempt, empty pid, blank analysis/inproc/cert cells"
    true
    (contains s ",solved,1,,,,,,,,,,,,,,\n")

(* an in-process memout is a clean frame: the row crosses the fork with
   the call's own stats, and every stat column is filled *)
let test_memout_row_stats () =
  let config = Harness.Sweep.default_config ~timeout:20.0 ~node_limit:64 in
  let inst = Fam.adder ~bits:4 ~boxes:2 ~fault:false in
  let rows = (Harness.Sweep.run ~config [ Harness.Sweep.item_of_instance inst ]).Harness.Sweep.results in
  match String.split_on_char '\n' (Harness.Report.csv rows) with
  | header :: row :: _ ->
      let cells = List.combine (String.split_on_char ',' header) (String.split_on_char ',' row) in
      let cell name = List.assoc name cells in
      Alcotest.(check string) "outcome" "MO" (cell "hqs_outcome");
      List.iter
        (fun (name, _) -> check (name ^ " filled") true (cell name <> ""))
        Hqs.stat_columns;
      check "peak nodes reach the limit" true (int_of_string (cell "hqs_peak_nodes") >= 64)
  | _ -> Alcotest.fail "csv has no data row"

(* the sweep's heap ceiling is the solve's own budget: a zero ceiling
   is an in-process MO on both solvers, and the HQS row keeps its stats *)
let test_heap_limit_memout () =
  let config =
    {
      (Harness.Sweep.default_config ~timeout:20.0 ~node_limit:400_000) with
      mem_limit_mb = Some 0;
    }
  in
  let items = [ Harness.Sweep.item_of_instance small_sat ] in
  match (Harness.Sweep.run ~config items).Harness.Sweep.results with
  | [ r ] ->
      (match (r.R.hqs, r.R.idq) with
      | R.Memout _, R.Memout _ -> ()
      | _ -> Alcotest.fail "expected MO on both solvers");
      check "hqs stats crossed the fork" true (Option.is_some r.R.hqs_stats)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

(* a worker killed on its wall limit sends no stats frame; the row is
   rebuilt from the salvaged samples alone, and its configuration cells
   echo the sweep's own config instead of invented defaults *)
let test_salvaged_row () =
  let module S = Harness.Sweep in
  let hqs_config =
    {
      Hqs.default_config with
      Hqs.dep_scheme = Analysis.Scheme.Rp;
      preprocess = { Dqbf.Preprocess.default_config with Dqbf.Preprocess.inproc = Inproc.Off };
    }
  in
  let config =
    { (S.default_config ~timeout:1.0 ~node_limit:1000) with S.hqs_config }
  in
  let item = S.item_of_instance small_unsat in
  let result status salvaged_metrics =
    S.row_of_result
      {
        Exec.Pool.status;
        attempts = 1;
        worker_pid = 4242;
        elapsed_s = 1.0;
        crash_log = [];
        salvaged_metrics;
      }
  in
  let sample name kind v = { Obs.Metrics.name; kind; v } in
  let salvaged =
    [
      sample "hqs.peak_nodes" Obs.Metrics.Gauge 900.0;
      sample "inproc.rounds" Obs.Metrics.Counter 3.0;
      sample "inproc.runs" Obs.Metrics.Counter 1.0;
    ]
  in
  let idq_value = Obs.Json.Obj [ ("outcome", S.outcome_to_json (R.Solved (false, 0.1))) ] in
  let r =
    S.assemble config item
      ~hqs:(result (Exec.Pool.Timeout 1.0) salvaged)
      ~idq:(result (Exec.Pool.Value idq_value) [])
  in
  check "salvaged stats" true (Option.is_some r.R.hqs_stats);
  match String.split_on_char '\n' (Harness.Report.csv [ r ]) with
  | header :: row :: _ ->
      let cells = List.combine (String.split_on_char ',' header) (String.split_on_char ',' row) in
      let cell name = List.assoc name cells in
      Alcotest.(check string) "outcome" "timeout" (cell "outcome");
      Alcotest.(check string) "idq verdict" "UNSAT" (cell "idq_outcome");
      Alcotest.(check string) "dep scheme echo" "rp" (cell "hqs_dep_scheme");
      Alcotest.(check string) "inproc mode echo" "off" (cell "hqs_inproc_mode");
      Alcotest.(check string) "rounds, not runs" "3" (cell "hqs_inproc_rounds");
      Alcotest.(check string) "salvaged gauge" "900" (cell "hqs_peak_nodes");
      Alcotest.(check string) "no artifact" "-" (cell "hqs_cert_status")
  | _ -> Alcotest.fail "csv has no data row"

let parse_json text =
  match Obs.Json.parse text with Ok j -> j | Error msg -> Alcotest.fail msg

(* journal lines written while the solver still recorded degradations
   carry a [degraded] array next to [metrics], and older TO/MO lines a
   [null] stats; both wrap the row in the pool's status keys. --resume
   over such a journal must still decode them, into full rows and blank
   stat cells respectively *)
let test_old_journal_stats () =
  let module S = Harness.Sweep in
  let value =
    parse_json
      {|{"outcome":{"o":"UNSAT","t":0.5},"stats":{"metrics":{"degrade.events":1,"elim.universal":2,"hqs.peak_nodes":20},"degraded":["qbf.elim->search[node-limit]"]}}|}
  in
  (match Option.bind (Obs.Json.member "stats" value) S.stats_of_json with
  | None -> Alcotest.fail "old stats object did not decode"
  | Some s ->
      check "round trip" true (S.stats_of_json (S.stats_to_json s) = Some s);
      check "metric kept" true (Hqs.metric s "hqs.peak_nodes" = 20.0));
  let config = S.default_config ~timeout:1.0 ~node_limit:1000 in
  let item = S.item_of_instance small_unsat in
  let old_line value =
    let line =
      Obs.Json.Obj
        [
          ("status", Obs.Json.Str "ok");
          ("elapsed_s", Obs.Json.Num 0.5);
          ("attempts", Obs.Json.Num 1.0);
          ("pid", Obs.Json.Num 4242.0);
          ("value", value);
          ("log", Obs.Json.Arr []);
        ]
    in
    match S.row_of_json line with
    | Some row -> row
    | None -> Alcotest.fail "old journal line did not decode"
  in
  let row_of value =
    let r =
      S.assemble config item ~hqs:(old_line value)
        ~idq:(old_line (Obs.Json.Obj [ ("outcome", S.outcome_to_json (R.Solved (false, 0.1))) ]))
    in
    match String.split_on_char '\n' (Harness.Report.csv [ r ]) with
    | header :: row :: _ ->
        let cells = List.combine (String.split_on_char ',' header) (String.split_on_char ',' row) in
        fun name -> List.assoc name cells
    | _ -> Alcotest.fail "csv has no data row"
  in
  let cell = row_of value in
  Alcotest.(check string) "verdict" "UNSAT" (cell "hqs_outcome");
  Alcotest.(check string) "peak nodes" "20" (cell "hqs_peak_nodes");
  Alcotest.(check string) "universal eliminations" "2" (cell "hqs_univ_elims");
  (* a TO line written before in-process TO/MO rows carried stats *)
  let cell = row_of (parse_json {|{"outcome":{"o":"TO","t":1.0},"stats":null}|}) in
  Alcotest.(check string) "null stats: outcome" "TO" (cell "hqs_outcome");
  Alcotest.(check string) "null stats: blank peak" "" (cell "hqs_peak_nodes");
  Alcotest.(check string) "null stats: blank cert status" "" (cell "hqs_cert_status")

(* --------------------------------------------------------------- resume *)

module S = Harness.Sweep

let tmp_journal name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists path then Sys.remove path;
  path

let sweep_config = S.default_config ~timeout:20.0 ~node_limit:400_000
let tiny_items = [ S.item_of_instance small_sat; S.item_of_instance small_unsat ]

(* a sweep, with the progress records it reported in order *)
let sweep_with_progress ?journal ?resume items =
  let seen = ref [] in
  let on_progress p = seen := p :: !seen in
  let report = S.run ~config:sweep_config ?journal ?resume ~on_progress items in
  (report, List.rev !seen)

let test_resume_skips_journaled () =
  let path = tmp_journal "hqs_test_sweep_resume.jsonl" in
  let first, _ = sweep_with_progress ~journal:path tiny_items in
  check_int "first run executes all" 4 first.S.executed;
  check_int "first run journals nothing it read" 0 first.S.journaled;
  let second, progress = sweep_with_progress ~journal:path ~resume:path tiny_items in
  check_int "resume executes none" 0 second.S.executed;
  check_int "all from journal" 4 second.S.journaled;
  check_int "nothing dropped" 0 second.S.journal_dropped;
  check_int "one progress record per task" 4 (List.length progress);
  check "all marked journaled" true (List.for_all (fun p -> p.S.from_journal) progress);
  Alcotest.(check (list string)) "results in input order"
    (List.map (fun (i : S.item) -> i.S.id) tiny_items)
    (List.map (fun r -> r.R.id) second.S.results);
  Alcotest.(check string) "the resumed report is byte-identical"
    (Harness.Report.csv first.S.results)
    (Harness.Report.csv second.S.results);
  Sys.remove path

let test_resume_runs_remaining () =
  (* journal a strict subset, then resume over the full item list: only
     the missing tasks may execute *)
  let path = tmp_journal "hqs_test_sweep_resume_partial.jsonl" in
  let _ = S.run ~config:sweep_config ~journal:path [ List.hd tiny_items ] in
  let report, progress = sweep_with_progress ~resume:path tiny_items in
  check_int "exactly the missing tasks ran" 2 report.S.executed;
  let unsat = S.item_of_instance small_unsat in
  Alcotest.(check (list string)) "the right ones"
    [ S.task_id unsat S.Hqs_run; S.task_id unsat S.Idq_run ]
    (List.sort String.compare
       (List.filter_map (fun p -> if p.S.from_journal then None else Some p.S.task) progress));
  check_int "rest came from the journal" 2 report.S.journaled;
  Alcotest.(check (list string)) "results in input order"
    (List.map (fun (i : S.item) -> i.S.id) tiny_items)
    (List.map (fun r -> r.R.id) report.S.results);
  Sys.remove path

let test_row_json_roundtrip () =
  let crash =
    { S.outcome = R.Crash 1.25; stats = None; cert = None; attempts = 3; worker_pid = 4242 }
  in
  let solved =
    {
      S.outcome = R.Solved (true, 0.5);
      stats = Some { Hqs.metrics = [ ("hqs.peak_nodes", 57.0); ("elim.universal", 2.0) ] };
      cert = Some "certs/x.cert";
      attempts = 1;
      worker_pid = 77;
    }
  in
  List.iter
    (fun row ->
      let json = S.row_to_json row in
      check "row survives the journal codec" true (S.row_of_json json = Some row);
      (* the keys the benchmark driver reads off each journal line *)
      let field path =
        List.fold_left (fun j key -> Option.bind j (Obs.Json.member key)) (Some json) path
      in
      check "value.outcome.o" true
        (Option.is_some (Option.bind (field [ "value"; "outcome"; "o" ]) Obs.Json.to_string));
      check "value.outcome.t" true
        (Option.is_some (Option.bind (field [ "value"; "outcome"; "t" ]) Obs.Json.to_number));
      check "attempts" true
        (Option.bind (field [ "attempts" ]) Obs.Json.to_number = Some (float_of_int row.S.attempts)))
    [ crash; solved ]

let test_resume_drops_undecodable () =
  (* a checksum-valid line whose data is no row (an old journal's TO
     line: the pool's status keys around a [null] value) counts as
     dropped, and its task runs again *)
  let path = tmp_journal "hqs_test_sweep_resume_shape.jsonl" in
  let item = S.item_of_instance small_unsat in
  let hqs_id = S.task_id item S.Hqs_run in
  let _ = S.run ~config:sweep_config ~journal:path [ item ] in
  let { Exec.Journal.entries; dropped } = Exec.Journal.load path in
  check_int "clean journal" 0 dropped;
  Sys.remove path;
  let j = Exec.Journal.open_append path in
  List.iter
    (fun (e : Exec.Journal.entry) ->
      if String.equal e.Exec.Journal.task_id hqs_id then
        Exec.Journal.append j
          {
            e with
            Exec.Journal.data =
              parse_json
                {|{"status":"timeout","elapsed_s":1.0,"attempts":1,"pid":7,"value":null,"log":[]}|};
          }
      else Exec.Journal.append j e)
    entries;
  Exec.Journal.close j;
  let report, progress = sweep_with_progress ~resume:path [ item ] in
  check_int "the undecodable line is dropped" 1 report.S.journal_dropped;
  check_int "its task ran again" 1 report.S.executed;
  check_int "the other came from the journal" 1 report.S.journaled;
  Alcotest.(check (list string)) "the rerun task" [ hqs_id ]
    (List.filter_map (fun p -> if p.S.from_journal then None else Some p.S.task) progress);
  (match report.S.results with
  | [ r ] -> check "rerun solved" true (R.is_solved r.R.hqs)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs));
  Sys.remove path

let test_duplicate_ids_rejected () =
  let item = S.item_of_instance small_sat in
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument ("Sweep.run: duplicate task id " ^ S.task_id item S.Hqs_run))
    (fun () -> ignore (S.run [ item; item ]))

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "solves" `Slow test_run_hqs_solves;
          Alcotest.test_case "timeout" `Quick test_run_hqs_timeout;
          Alcotest.test_case "memout" `Quick test_run_hqs_memout;
          Alcotest.test_case "instance agreement" `Slow test_run_instance_agreement;
        ] );
      ( "report",
        [
          Alcotest.test_case "table1 shape" `Quick test_table1_shape;
          Alcotest.test_case "fig4 content" `Quick test_fig4_contains_points;
          Alcotest.test_case "headline counts" `Quick test_headline_counts;
          Alcotest.test_case "csv lines" `Quick test_csv_lines;
          Alcotest.test_case "disagreement reported" `Quick test_disagreement_reported;
          Alcotest.test_case "crash reported" `Quick test_crash_reported;
          Alcotest.test_case "csv executor columns" `Quick test_csv_executor_columns;
          Alcotest.test_case "salvaged row echoes the sweep config" `Quick test_salvaged_row;
          Alcotest.test_case "memout row carries its stats" `Quick test_memout_row_stats;
          Alcotest.test_case "heap-limit memout row carries its stats" `Quick
            test_heap_limit_memout;
        ] );
      ( "sweep codec",
        [ Alcotest.test_case "old journal stats with degraded decode" `Quick test_old_journal_stats ] );
      ( "sweep",
        [ Alcotest.test_case "duplicate ids rejected" `Quick test_duplicate_ids_rejected ] );
      ( "resume",
        [
          Alcotest.test_case "full journal: zero executions" `Quick test_resume_skips_journaled;
          Alcotest.test_case "partial journal: tail only" `Quick test_resume_runs_remaining;
          Alcotest.test_case "completion json roundtrip" `Quick test_row_json_roundtrip;
          Alcotest.test_case "undecodable line is dropped and rerun" `Quick
            test_resume_drops_undecodable;
        ] );
    ]
