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
let peak_nodes = function
  | Some stats -> Hqs.metric stats "hqs.peak_nodes"
  | None -> Alcotest.fail "an unfinished run returned no stats"

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
  let module Sup = Exec.Supervisor in
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
  let completion solver status salvaged_metrics =
    {
      Sup.task_id = S.task_id item solver;
      status;
      attempts = 1;
      worker_pid = 4242;
      elapsed_s = 1.0;
      crash_log = [];
      from_journal = false;
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
  let r =
    S.assemble config item
      ~hqs:(completion S.Hqs_run (Sup.Timeout 1.0) salvaged)
      ~idq:(completion S.Idq_run (Sup.Value (S.outcome_to_json (R.Solved (false, 0.1)))) [])
  in
  check "salvaged stats" true (Option.is_some r.R.hqs_stats);
  match String.split_on_char '\n' (Harness.Report.csv [ r ]) with
  | header :: row :: _ ->
      let cells = List.combine (String.split_on_char ',' header) (String.split_on_char ',' row) in
      let cell name = List.assoc name cells in
      Alcotest.(check string) "outcome" "timeout" (cell "outcome");
      Alcotest.(check string) "dep scheme echo" "rp" (cell "hqs_dep_scheme");
      Alcotest.(check string) "inproc mode echo" "off" (cell "hqs_inproc_mode");
      Alcotest.(check string) "rounds, not runs" "3" (cell "hqs_inproc_rounds");
      Alcotest.(check string) "salvaged gauge" "900" (cell "hqs_peak_nodes");
      Alcotest.(check string) "no artifact" "-" (cell "hqs_cert_status")
  | _ -> Alcotest.fail "csv has no data row"

(* journal lines written while the solver still recorded degradations
   carry a [degraded] array next to [metrics], and older TO/MO lines a
   [null] stats; --resume over such a journal must still decode them,
   into full rows and blank stat cells respectively *)
let test_old_journal_stats () =
  let module Sup = Exec.Supervisor in
  let module S = Harness.Sweep in
  let value =
    match
      Obs.Json.parse
        {|{"outcome":{"o":"UNSAT","t":0.5},"stats":{"metrics":{"degrade.events":1,"elim.universal":2,"hqs.peak_nodes":20},"degraded":["qbf.elim->search[node-limit]"]}}|}
    with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  (match Option.bind (Obs.Json.member "stats" value) S.stats_of_json with
  | None -> Alcotest.fail "old stats object did not decode"
  | Some s ->
      check "round trip" true (S.stats_of_json (S.stats_to_json s) = Some s);
      check "metric kept" true (Hqs.metric s "hqs.peak_nodes" = 20.0));
  let config = S.default_config ~timeout:1.0 ~node_limit:1000 in
  let item = S.item_of_instance small_unsat in
  let completion solver status =
    {
      Sup.task_id = S.task_id item solver;
      status;
      attempts = 1;
      worker_pid = 4242;
      elapsed_s = 0.5;
      crash_log = [];
      from_journal = true;
      salvaged_metrics = [];
    }
  in
  let row_of value =
    let r =
      S.assemble config item
        ~hqs:(completion S.Hqs_run (Sup.Value value))
        ~idq:(completion S.Idq_run (Sup.Value (S.outcome_to_json (R.Solved (false, 0.1)))))
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
  let cell =
    match Obs.Json.parse {|{"outcome":{"o":"TO","t":1.0},"stats":null}|} with
    | Ok j -> row_of j
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check string) "null stats: outcome" "TO" (cell "hqs_outcome");
  Alcotest.(check string) "null stats: blank peak" "" (cell "hqs_peak_nodes");
  Alcotest.(check string) "null stats: blank cert status" "" (cell "hqs_cert_status")

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
    ]
