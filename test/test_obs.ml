(* The observability layer: metric arithmetic, span nesting, Chrome
   trace well-formedness (checked with the built-in JSON parser), the
   disabled no-op guarantee, and an end-to-end solve whose trace must
   show the pipeline stages in order. *)

module Fam = Circuit.Families

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* fresh per-test trace state; metrics are process-global by design, so
   tests only assert on deltas or on uniquely-named series *)
let with_tracing f =
  Obs.Trace.reset ();
  Obs.Trace.start ();
  match f () with
  | v ->
      Obs.Trace.stop ();
      v
  | exception e ->
      Obs.Trace.stop ();
      raise e

(* ---------------------------------------------------------------- metrics *)

let test_counter () =
  let c = Obs.Metrics.counter "t.counter" in
  let v0 = Obs.Metrics.counter_value c in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  check_int "counter adds" (v0 + 42) (Obs.Metrics.counter_value c);
  (* registration is idempotent: same name, same cell *)
  let c' = Obs.Metrics.counter "t.counter" in
  Obs.Metrics.incr c';
  check_int "same cell" (v0 + 43) (Obs.Metrics.counter_value c)

let test_gauge () =
  let g = Obs.Metrics.gauge "t.gauge" in
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set_max g 1.0;
  Alcotest.(check (float 0.0)) "set_max keeps larger" 2.5 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set_max g 9.0;
  Alcotest.(check (float 0.0)) "set_max takes larger" 9.0 (Obs.Metrics.gauge_value g)

let test_histogram () =
  let h = Obs.Metrics.histogram "t.hist" in
  List.iter (fun v -> Obs.Metrics.observe h v) [ 3.0; 1.0; 2.0 ];
  let s = Obs.Metrics.histogram_stats h in
  check_int "count" 3 s.Obs.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 6.0 s.Obs.Metrics.sum;
  Alcotest.(check (float 0.0)) "min" 1.0 s.Obs.Metrics.min_;
  Alcotest.(check (float 0.0)) "max" 3.0 s.Obs.Metrics.max_

let test_kind_clash () =
  let _ = Obs.Metrics.counter "t.clash" in
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Metrics: t.clash already registered as another kind") (fun () ->
      ignore (Obs.Metrics.gauge "t.clash"))

let test_snapshot_delta () =
  let c = Obs.Metrics.counter "t.delta.c" in
  let g = Obs.Metrics.gauge "t.delta.g" in
  let h = Obs.Metrics.histogram "t.delta.h" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 10.0;
  let before = Obs.Metrics.snapshot () in
  (* snapshot is sorted by name *)
  let names = List.map (fun s -> s.Obs.Metrics.name) before in
  check "snapshot sorted" true (List.sort String.compare names = names);
  Obs.Metrics.incr ~by:7 c;
  Obs.Metrics.set g 5.0;
  Obs.Metrics.observe h 2.0;
  let delta = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
  let get n = match Obs.Metrics.find delta n with Some v -> v | None -> nan in
  Alcotest.(check (float 0.0)) "counter delta" 7.0 (get "t.delta.c");
  Alcotest.(check (float 0.0)) "gauge passes through" 5.0 (get "t.delta.g");
  Alcotest.(check (float 0.0)) "hist count delta" 1.0 (get "t.delta.h.count");
  Alcotest.(check (float 0.0)) "hist sum delta" 2.0 (get "t.delta.h.sum")

let test_window_quantiles () =
  let w = Obs.Metrics.window ~capacity:4 "t.win" in
  check "empty window is nan" true (Float.is_nan (Obs.Metrics.quantile w 0.5));
  check_int "empty count" 0 (Obs.Metrics.window_count w);
  Obs.Metrics.wobserve w 10.0;
  (* a single observation is every quantile *)
  Alcotest.(check (float 0.0)) "p0 of one" 10.0 (Obs.Metrics.quantile w 0.0);
  Alcotest.(check (float 0.0)) "p100 of one" 10.0 (Obs.Metrics.quantile w 1.0);
  List.iter (Obs.Metrics.wobserve w) [ 20.0; 30.0; 40.0 ];
  check_int "full window" 4 (Obs.Metrics.window_count w);
  (* nearest-rank at the exact window edges *)
  Alcotest.(check (float 0.0)) "p0 is min" 10.0 (Obs.Metrics.quantile w 0.0);
  Alcotest.(check (float 0.0)) "p50" 20.0 (Obs.Metrics.quantile w 0.5);
  Alcotest.(check (float 0.0)) "p100 is max" 40.0 (Obs.Metrics.quantile w 1.0);
  (* out-of-range q clamps instead of raising *)
  Alcotest.(check (float 0.0)) "q below 0 clamps" 10.0 (Obs.Metrics.quantile w (-3.0));
  Alcotest.(check (float 0.0)) "q above 1 clamps" 40.0 (Obs.Metrics.quantile w 7.0);
  (* wrap past capacity: the oldest observation falls out of the ring *)
  Obs.Metrics.wobserve w 50.0;
  check_int "count capped at capacity" 4 (Obs.Metrics.window_count w);
  Alcotest.(check (float 0.0)) "evicted oldest" 20.0 (Obs.Metrics.quantile w 0.0);
  Alcotest.(check (float 0.0)) "p50 tracks the window" 30.0 (Obs.Metrics.quantile w 0.5);
  Alcotest.(check (float 0.0)) "newest is max" 50.0 (Obs.Metrics.quantile w 1.0);
  (* windows live outside the snapshot registry: frame and BENCH formats
     must not grow a key per window *)
  check "excluded from snapshot" true
    (List.for_all
       (fun s -> not (String.equal s.Obs.Metrics.name "t.win"))
       (Obs.Metrics.snapshot ()))

(* ------------------------------------------------------------------ spans *)

let test_span_nesting () =
  with_tracing (fun () ->
      Obs.Span.with_ "outer" (fun () ->
          check_str "current" "outer" (Option.value ~default:"?" (Obs.Span.current ()));
          check_int "depth" 1 (Obs.Trace.depth ());
          Obs.Span.with_ "inner" (fun () -> check_int "depth" 2 (Obs.Trace.depth ()));
          Obs.Span.event "mark" ()));
  let evs = Obs.Trace.events () in
  let shape =
    List.map
      (fun e ->
        ( e.Obs.Trace.name,
          match e.Obs.Trace.ph with
          | Obs.Trace.Begin -> "B"
          | Obs.Trace.End -> "E"
          | Obs.Trace.Instant -> "i" ))
      evs
  in
  Alcotest.(check (list (pair string string)))
    "event order"
    [ ("outer", "B"); ("inner", "B"); ("inner", "E"); ("mark", "i"); ("outer", "E") ]
    shape;
  (* timestamps are monotone *)
  let ts = List.map (fun e -> e.Obs.Trace.ts_us) evs in
  check "monotone ts" true (List.sort Float.compare ts = ts);
  check_int "nothing dropped" 0 (Obs.Trace.dropped ())

let test_span_exception () =
  let seen = ref false in
  (try
     with_tracing (fun () ->
         Obs.Span.with_ "boom" (fun () -> raise Exit))
   with Exit -> seen := true);
  check "exception propagates" true !seen;
  match List.rev (Obs.Trace.events ()) with
  | last :: _ ->
      check_str "span still closed" "boom" last.Obs.Trace.name;
      check "flagged as raised" true
        (List.exists (fun (k, _) -> String.equal k "raised") last.Obs.Trace.attrs)
  | [] -> Alcotest.fail "no events recorded"

let test_disabled_noop () =
  Obs.Trace.reset ();
  check "tracing off" false (Obs.Trace.enabled ());
  let v = Obs.Span.with_ "ghost" (fun () -> 17) in
  check_int "value passes through" 17 v;
  Obs.Span.event "ghost-event" ();
  check_int "no events recorded" 0 (List.length (Obs.Trace.events ()));
  Alcotest.check_raises "exception still propagates" Exit (fun () ->
      Obs.Span.with_ "ghost" (fun () -> raise Exit))

let test_events_json_roundtrip () =
  let batch =
    [
      {
        Obs.Trace.name = "w.root";
        ph = Obs.Trace.Begin;
        ts_us = 5.0;
        tid = 3;
        attrs = [ ("trace_id", Obs.Str "sweep-1-aa"); ("n", Obs.Int 2) ];
      };
      { Obs.Trace.name = "tick"; ph = Obs.Trace.Instant; ts_us = 6.5; tid = 3; attrs = [] };
      { Obs.Trace.name = "w.root"; ph = Obs.Trace.End; ts_us = 9.0; tid = 3; attrs = [] };
    ]
  in
  let decoded = Obs.Trace.events_of_json (Obs.Trace.events_to_json batch) in
  check_int "batch length survives" 3 (List.length decoded);
  List.iter2
    (fun a b ->
      check_str "name" a.Obs.Trace.name b.Obs.Trace.name;
      check "phase" true (a.Obs.Trace.ph = b.Obs.Trace.ph);
      Alcotest.(check (float 0.0)) "ts" a.Obs.Trace.ts_us b.Obs.Trace.ts_us;
      check_int "tid" a.Obs.Trace.tid b.Obs.Trace.tid)
    batch decoded;
  (* a batch torn mid-serialization decodes to the valid prefix, never
     raises: garbage entries are skipped *)
  let torn = Obs.Json.Arr [ Obs.Json.Str "not an event"; Obs.Trace.events_to_json batch ] in
  ignore (Obs.Trace.events_of_json torn)

let test_inject_truncated_batch () =
  with_tracing (fun () ->
      Obs.Span.with_ "sup" (fun () -> ());
      (* a worker batch cut short by SIGKILL: two Begins, no Ends *)
      let batch =
        [
          {
            Obs.Trace.name = "w.root";
            ph = Obs.Trace.Begin;
            ts_us = 5.0;
            tid = 1;
            attrs = [];
          };
          { Obs.Trace.name = "w.inner"; ph = Obs.Trace.Begin; ts_us = 6.0; tid = 1; attrs = [] };
        ]
      in
      Obs.Trace.inject ~pid:4242 ~dropped:3 batch);
  check "mid-span death flags the trace truncated" true (Obs.Trace.truncated ());
  check_int "worker drop counter absorbed" 3 (Obs.Trace.dropped ());
  match Obs.Json.parse (Obs.Trace.to_chrome_json ()) with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok json ->
      let evs =
        match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let worker_evs =
        List.filter
          (fun ev ->
            match Option.bind (Obs.Json.member "pid" ev) Obs.Json.to_number with
            | Some p -> int_of_float p = 4242
            | None -> false)
          evs
      in
      let phase_count p =
        List.length
          (List.filter
             (fun ev ->
               match Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_string with
               | Some q -> String.equal p q
               | None -> false)
             worker_evs)
      in
      (* the unbalanced Begins got synthesized Ends: the worker row is
         well-formed, not torn *)
      check_int "worker row has both Begins" 2 (phase_count "B");
      check_int "synthesized Ends balance them" 2 (phase_count "E");
      let truncated_flag =
        Option.bind (Obs.Json.member "otherData" json) (fun od ->
            Obs.Json.member "truncated" od)
      in
      check "otherData carries truncated:true" true (truncated_flag = Some (Obs.Json.Bool true))

(* ------------------------------------------------------------ Chrome JSON *)

let test_chrome_json () =
  with_tracing (fun () ->
      Obs.Span.with_ "alpha" ~attrs:[ ("n", Obs.Int 3); ("s", Obs.Str "a\"b\n") ] (fun () ->
          Obs.Span.with_ "beta" (fun () -> ());
          Obs.Span.event "tick" ~attrs:[ ("f", Obs.Float 0.5); ("b", Obs.Bool true) ] ()));
  let body = Obs.Trace.to_chrome_json () in
  match Obs.Json.parse body with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok json -> (
      match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          check_int "five events" 5 (List.length evs);
          let phases =
            List.filter_map
              (fun ev -> Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_string)
              evs
          in
          Alcotest.(check (list string)) "phases" [ "B"; "B"; "E"; "i"; "E" ] phases;
          (* the escaped attribute round-trips *)
          let first = List.hd evs in
          let attr =
            Option.bind (Obs.Json.member "args" first) (fun args ->
                Option.bind (Obs.Json.member "s" args) Obs.Json.to_string)
          in
          check_str "escaped attr" "a\"b\n" (Option.value ~default:"?" attr))

let test_json_parser () =
  (match Obs.Json.parse "{\"a\": [1, 2.5, {\"b\": \"x\\n\"}], \"t\": true, \"n\": null}" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok j ->
      let a = Option.bind (Obs.Json.member "a" j) Obs.Json.to_list in
      (match a with
      | Some [ one; _; obj ] ->
          Alcotest.(check (option (float 0.0))) "number" (Some 1.0) (Obs.Json.to_number one);
          check_str "nested string" "x\n"
            (Option.value ~default:"?"
               (Option.bind (Obs.Json.member "b" obj) Obs.Json.to_string))
      | _ -> Alcotest.fail "array shape"));
  (match Obs.Json.parse "{\"a\":}" with
  | Ok _ -> Alcotest.fail "accepted malformed JSON"
  | Error _ -> ());
  match Obs.Json.parse "[1,2] trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ()

(* ------------------------------------------------------------ end-to-end *)

let index_of name shape =
  let rec go i = function
    | [] -> None
    | (n, ph) :: rest ->
        if String.equal n name && String.equal ph "B" then Some i else go (i + 1) rest
  in
  go 0 shape

let test_end_to_end_solve () =
  let inst = Fam.pec_xor ~length:3 ~boxes:2 ~fault:false in
  let verdict =
    with_tracing (fun () -> fst (Hqs.solve_pcnf inst.Fam.pcnf))
  in
  check "solved sat" true (match verdict with Hqs.Sat -> true | Hqs.Unsat -> false);
  let evs = Obs.Trace.events () in
  let shape =
    List.map
      (fun e ->
        ( e.Obs.Trace.name,
          match e.Obs.Trace.ph with
          | Obs.Trace.Begin -> "B"
          | Obs.Trace.End -> "E"
          | Obs.Trace.Instant -> "i" ))
      evs
  in
  (* B/E events balance like parentheses *)
  let depth =
    List.fold_left
      (fun d (_, ph) ->
        check "never negative" true (d >= 0);
        if String.equal ph "B" then d + 1 else if String.equal ph "E" then d - 1 else d)
      0 (List.map (fun (n, p) -> (n, p)) shape)
  in
  check_int "all spans closed" 0 depth;
  (* the pipeline stages appear, in pipeline order *)
  let at name = match index_of name shape with
    | Some i -> i
    | None -> Alcotest.failf "span %s missing from trace" name
  in
  check "preprocess first" true (at "preprocess" < at "hqs.solve");
  check "selection before expansion" true (at "elim.select" < at "elim.expand");
  check "expansion before backend" true (at "elim.expand" < at "qbf.backend");
  check "backend inside solve" true (at "hqs.solve" < at "qbf.backend");
  (* the flame summary mentions the hot spans *)
  let summary = Obs.Trace.flame_summary () in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    m = 0 || go 0
  in
  check "summary lists hqs.solve" true (contains summary "hqs.solve");
  check "summary lists qbf.backend" true (contains summary "qbf.backend")

(* the engine's rule passes are spans of their own inside inproc.run *)
let test_inproc_rule_spans () =
  let pcnf = Dqbf.Pcnf.parse_file "fixtures/inproc_basic.dqdimacs" in
  let verdict = with_tracing (fun () -> fst (Hqs.solve_pcnf pcnf)) in
  check "solved sat" true (verdict = Hqs.Sat);
  let rules = [ "inproc.simplify"; "inproc.scc"; "inproc.subsume"; "inproc.gates" ] in
  (* each rule span's enclosing spans, at its Begin *)
  let enclosing = Hashtbl.create 8 in
  ignore
    (List.fold_left
       (fun stack e ->
         match e.Obs.Trace.ph with
         | Obs.Trace.Begin ->
             if List.mem e.Obs.Trace.name rules then
               Hashtbl.add enclosing e.Obs.Trace.name stack;
             e.Obs.Trace.name :: stack
         | Obs.Trace.End -> List.tl stack
         | Obs.Trace.Instant -> stack)
       [] (Obs.Trace.events ()));
  List.iter
    (fun rule ->
      match Hashtbl.find_all enclosing rule with
      | [] -> Alcotest.failf "span %s missing from trace" rule
      | stacks ->
          check (rule ^ " nested under inproc.run") true
            (List.for_all (fun stack -> List.mem "inproc.run" stack) stacks))
    rules

let count stats name = int_of_float (Hqs.metric stats name)

let test_solve_metrics_flow () =
  (* the stats are the registry delta over the whole call: the analysis
     and inproc front end land next to the solve's own counters *)
  let inst = Fam.c432 ~groups:3 ~lines:3 ~boxes:3 ~fault:false in
  let _, report = Analysis.Rp.analyze ~scheme:Analysis.Scheme.Rp inst.Fam.pcnf in
  let config = { Hqs.default_config with Hqs.dep_scheme = Analysis.Scheme.Rp } in
  let _, stats = Hqs.solve_pcnf ~config inst.Fam.pcnf in
  check "solve counters" true (count stats "sat.solves" >= 1);
  check_int "analysis delta" (List.length report.Analysis.Rp.pruned)
    (count stats "analysis.edges_pruned");
  check "analysis pruned something" true (count stats "analysis.edges_pruned" > 0);
  check_int "one inproc run" 1 (count stats "inproc.runs");
  check "inproc rounds" true (count stats "inproc.rounds" >= 1);
  check "inproc work" true (count stats "inproc.clauses_removed" > 0);
  (* every declared column renders, and the --stats keys derive from it *)
  let line =
    Format.asprintf "%a" (Hqs.pp_stats ~config ~verdict:(Some Hqs.Sat)) stats
  in
  List.iter
    (fun key ->
      let re = Str.regexp_string (key ^ "=") in
      check key true (try ignore (Str.search_forward re line 0); true with Not_found -> false))
    [ "maxsat-set"; "univ-elims"; "inproc-rounds"; "dep-scheme"; "cert-status" ]

(* the integer-valued declared statistics of one call, as the CSV shows them *)
let declared_counts stats =
  List.filter_map
    (fun (column, stat) ->
      match stat with
      | Hqs.Count _ ->
          Some (column, Hqs.stat_cell ~config:Hqs.default_config ~verdict:None stats stat)
      | Hqs.Seconds _ | Hqs.Dep_scheme | Hqs.Inproc_mode | Hqs.Cert_status -> None)
    Hqs.stat_columns

let test_stats_per_call () =
  (* a bigger solve in between must not leak its peak-style gauges
     (hqs.peak_nodes, hqs.maxsat_set, ...) into the next call's stats *)
  let small = Fam.pec_xor ~length:2 ~boxes:1 ~fault:true in
  let big = Fam.pec_xor ~length:4 ~boxes:2 ~fault:true in
  let solo = declared_counts (snd (Hqs.solve_pcnf small.Fam.pcnf)) in
  let big_peak = count (snd (Hqs.solve_pcnf big.Fam.pcnf)) "hqs.peak_nodes" in
  let again = declared_counts (snd (Hqs.solve_pcnf small.Fam.pcnf)) in
  check "the big solve peaks higher" true
    (big_peak > int_of_string (List.assoc "hqs_peak_nodes" solo));
  List.iter2 (fun (column, a) (_, b) -> check_str column a b) solo again

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "snapshot and delta" `Quick test_snapshot_delta;
          Alcotest.test_case "window quantiles at the edges" `Quick test_window_quantiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "exception closes span" `Quick test_span_exception;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "event batch json roundtrip" `Quick test_events_json_roundtrip;
          Alcotest.test_case "inject repairs a truncated batch" `Quick
            test_inject_truncated_batch;
        ] );
      ( "chrome-json",
        [
          Alcotest.test_case "well-formed trace" `Quick test_chrome_json;
          Alcotest.test_case "json parser" `Quick test_json_parser;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "pipeline span order" `Quick test_end_to_end_solve;
          Alcotest.test_case "inproc rule spans" `Quick test_inproc_rule_spans;
          Alcotest.test_case "metrics flow into stats" `Quick test_solve_metrics_flow;
          Alcotest.test_case "stats are per call" `Quick test_stats_per_call;
        ] );
    ]
