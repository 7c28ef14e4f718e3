open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

type verdict = Sat | Unsat
type mode = Elimination | Expand_all

type config = {
  preprocess : Dqbf.Preprocess.config;
  mode : mode;
  use_unitpure : bool;
  use_thm2 : bool;
  use_maxsat : bool;
  node_limit : int option;
  check_level : Check.level;
  dep_scheme : Analysis.Scheme.t;
}

let default_config =
  {
    (* HQS_INPROC follows the HQS_CHECK contract: the CLI reports a
       malformed value; library users get the engine default *)
    preprocess =
      {
        Dqbf.Preprocess.default_config with
        Dqbf.Preprocess.inproc =
          (match Inproc.mode_of_env () with Ok m -> m | Error _ -> Inproc.default_mode);
      };
    mode = Elimination;
    use_unitpure = true;
    use_thm2 = true;
    use_maxsat = true;
    node_limit = None;
    (* a malformed HQS_CHECK is reported by the CLI; library users who
       bypass it get the safe default *)
    check_level = (match Check.level_of_env () with Ok l -> l | Error _ -> Check.Off);
    (* same contract as HQS_CHECK: a malformed HQS_DEP_SCHEME is reported
       by the CLI; library users get the default scheme *)
    dep_scheme =
      (match Analysis.Scheme.of_env () with Ok s -> s | Error _ -> Analysis.Scheme.default);
  }

let escalated_config config = { config with check_level = Check.Full }

type stats = { metrics : (string * float) list }

exception Done of verdict

let g_heap = Obs.Metrics.gauge "gc.heap_words.peak"

(* per-solve levels of the main loop. They are gauges, so [measured]
   zeroes them at the entry of every public call; counters need no reset,
   the call's delta already isolates them *)
let g_peak_nodes = Obs.Metrics.gauge "hqs.peak_nodes"
let m_unitpure_elims = Obs.Metrics.counter "hqs.unitpure_elims"
let g_maxsat_set = Obs.Metrics.gauge "hqs.maxsat_set"
let g_maxsat_time = Obs.Metrics.gauge "hqs.maxsat_time_s"
let g_unitpure_time = Obs.Metrics.gauge "hqs.unitpure_time_s"
let g_qbf_time = Obs.Metrics.gauge "hqs.qbf_time_s"

let per_call_gauges = [ g_peak_nodes; g_maxsat_set; g_maxsat_time; g_unitpure_time; g_qbf_time ]

(* add [run]'s wall time to the seconds gauge [g], also when [run] raises:
   a timeout or memout must still show where its time went *)
let timed g run =
  let t0 = Budget.now () in
  Fun.protect run ~finally:(fun () ->
      Obs.Metrics.set g (Obs.Metrics.gauge_value g +. (Budget.now () -. t0)))

let note_peak nodes = Obs.Metrics.set_max g_peak_nodes (float_of_int nodes)

let solve_impl ~(config : config) ~budget ~trail f0 =
  Obs.Span.with_ "hqs.solve" ~attrs:[ ("vars", Obs.Int (F.next_var f0)) ] @@ fun () ->
  let f = F.copy f0 in
  M.set_node_limit (F.man f) config.node_limit;
  let queue = ref [] in
  let last_size = ref (M.num_nodes (F.man f)) in
  let first_select = ref true in
  let note_size () =
    note_peak (M.num_nodes (F.man f));
    Obs.Metrics.set_max g_heap (float_of_int (Budget.heap_words ()))
  in
  (* the soundness gate at each stage boundary (free when check_level=Off) *)
  let audit ?queue stage = Check.audit_stage ~level:config.check_level ?queue stage f in
  let compact_if_grown () =
    note_size ();
    if M.num_nodes (F.man f) > (2 * !last_size) + 1024 then begin
      (Obs.Span.with_ "aig.compact" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
      @@ fun () ->
      let man, roots = M.compact (F.man f) [ F.matrix f ] in
      F.replace_man f man (List.hd roots);
      last_size := M.num_nodes man);
      audit Check.Post_compact
    end
  in
  let refill_queue () =
    Obs.Span.with_ "elim.select"
      ~attrs:[ ("universals", Obs.Int (F.num_universals f)); ("maxsat", Obs.Bool config.use_maxsat) ]
    @@ fun () ->
    let set =
      timed g_maxsat_time @@ fun () ->
      match config.mode with
      | Expand_all -> Bitset.to_list (F.universals f)
      | Elimination ->
          if config.use_maxsat then Dqbf.Elimset.minimum_set ~budget f
          else Dqbf.Elimset.greedy_all f
    in
    (* the paper's elimination-set size is that of the first selection *)
    if !first_select then begin
      first_select := false;
      Obs.Metrics.set_max g_maxsat_set (float_of_int (List.length set))
    end;
    queue := Dqbf.Elimset.ordered_queue f set
  in
  let verdict =
    try
      let continue_ = ref true in
      while !continue_ do
        Budget.check budget;
        note_size ();
        if M.is_true (F.matrix f) then raise (Done Sat);
        if M.is_false (F.matrix f) then raise (Done Unsat);
        Dqbf.Elim.prune_prefix ?trail f;
        (* unit / pure elimination (Theorems 5-6) *)
        let eliminated_up =
          if not config.use_unitpure then false
          else begin
            let r =
              timed g_unitpure_time @@ fun () ->
              Obs.Span.with_ "elim.unitpure" (fun () -> Dqbf.Elim.unit_pure_round ?trail f)
            in
            match r with
            | `Unsat -> raise (Done Unsat)
            | `Eliminated n ->
                Obs.Metrics.incr ~by:n m_unitpure_elims;
                true
            | `None -> false
          end
        in
        if eliminated_up then audit Check.Post_unitpure
        else begin
          let must_linearize =
            match config.mode with
            | Elimination -> not (Dqbf.Depgraph.is_acyclic f)
            | Expand_all -> not (Bitset.is_empty (F.universals f))
          in
          if must_linearize then begin
            (* Theorem 2 on fully-dependent existentials, then one
               universal elimination (Theorem 1) *)
            if config.use_thm2 then begin
              let k =
                Obs.Span.with_ "elim.thm2" (fun () -> Dqbf.Elim.eliminate_full_existentials ?trail f)
              in
              if k > 0 then audit Check.Post_elimination
            end;
            if not (M.is_const (F.matrix f)) then begin
              let rec next_univ () =
                match !queue with
                | x :: rest ->
                    queue := rest;
                    if F.is_universal f x then Some x else next_univ ()
                | [] -> None
              in
              let x =
                match next_univ () with
                | Some x -> Some x
                | None ->
                    refill_queue ();
                    next_univ ()
              in
              match x with
              | Some x ->
                  Dqbf.Elim.universal ?trail f x;
                  audit ~queue:!queue Check.Post_elimination;
                  compact_if_grown ()
              | None ->
                  (* no universal left to eliminate; the dependency graph
                     must be acyclic now *)
                  assert (Dqbf.Depgraph.is_acyclic f)
            end
          end
          else begin
            (* linear prefix: hand over to the QBF back end *)
            match Dqbf.Depgraph.qbf_prefix f with
            | None -> assert false
            | Some prefix ->
                if config.check_level <> Check.Off then
                  Check.audit_prefix ~stage:Check.Pre_backend f prefix;
                audit Check.Pre_backend;
                let on_define =
                  Option.map
                    (fun trail y man fn -> Dqbf.Model_trail.record_def trail man y fn)
                    trail
                in
                let answer =
                  timed g_qbf_time @@ fun () ->
                  Obs.Span.with_ "qbf.backend" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
                  @@ fun () ->
                  Qbf.Solver.solve ~budget ?on_define ~on_nodes:note_peak (F.man f) (F.matrix f)
                    prefix
                in
                raise (Done (if answer then Sat else Unsat))
          end
        end
      done;
      assert false
    with
    | Done v -> v
    | Budget.Out_of_memory_budget ->
        (* a node-limit raise leaves the manager at the limit: that is
           the peak a memout's stats line must show *)
        note_size ();
        raise Budget.Out_of_memory_budget
  in
  (* remaining existentials (if any) are don't-cares on a SAT verdict *)
  (match (verdict, trail) with
  | Sat, Some trail ->
      List.iter (fun (y, _) -> Dqbf.Model_trail.record_const trail y false) (F.existentials f)
  | _ -> ());
  verdict

(* every public entry point runs its whole call under [measured]: the
   stats are the registry delta from entry to return, so they cover the
   analysis, inproc, gate detection, the solve and certification alike *)
let measured run =
  List.iter (fun g -> Obs.Metrics.set g 0.0) per_call_gauges;
  let before = Obs.Metrics.snapshot () in
  let result = run () in
  let delta = Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ()) in
  (result, { metrics = Obs.Metrics.to_assoc delta })

let solve_formula ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  measured (fun () -> solve_impl ~config ~budget ~trail:None f0)

let solve_formula_model ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  let trail = Dqbf.Model_trail.create () in
  let (verdict, model), stats =
    measured @@ fun () ->
    let verdict = solve_impl ~config ~budget ~trail:(Some trail) f0 in
    match verdict with
    | Unsat -> (verdict, None)
    | Sat ->
        let skolem = Dqbf.Model_trail.reconstruct trail in
        (* certify the witness against the original matrix before handing
           it out: a wrong Skolem function here means some stage lied *)
        if config.check_level = Check.Full then
          Check.audit_model ~budget ~stage:Check.Post_solve f0 skolem;
        (verdict, Some (Dqbf.Skolem.restrict skolem ~keep:(Dqbf.Formula.is_existential f0)))
  in
  (verdict, model, stats)

(* Static dependency-scheme refinement (lib/analysis), the first pipeline
   stage: prune spurious dependency edges on the prefixed CNF before any
   AIG is built, so CNF preprocessing (universal reduction in particular),
   the MaxSAT elimination-set selector and linearization all see the
   smaller dependency graph. The soundness gate semantically validates a
   sample of pruned edges at [Full] depth. The [Trivial] scheme keeps the
   prefix as written, so it skips the analyzer, whose report it would
   discard. *)
let refine_pcnf ~(config : config) ~budget pcnf =
  match config.dep_scheme with
  | Analysis.Scheme.Trivial -> pcnf
  | Analysis.Scheme.Rp ->
      let refined, report = Analysis.Rp.analyze ~scheme:Analysis.Scheme.Rp pcnf in
      Check.audit_dep_pruning ~budget ~level:config.check_level pcnf
        ~pruned:report.Analysis.Rp.pruned;
      refined

(* the front end shared by every PCNF entry point: refine the prefix,
   preprocess (auditing the engine run against the refined CNF it
   consumed), then solve *)
let solve_refined ~config ~budget ~trail pcnf =
  let refined = refine_pcnf ~config ~budget pcnf in
  let on_inproc outcome = Check.audit_inproc ~budget ~level:config.check_level refined outcome in
  match
    Dqbf.Preprocess.run ~config:config.preprocess ?node_limit:config.node_limit ?trail ~on_inproc
      refined
  with
  | Dqbf.Preprocess.Unsat -> Unsat
  | Dqbf.Preprocess.Formula (f, _) ->
      Check.audit_stage ~level:config.check_level Check.Post_preprocess f;
      solve_impl ~config ~budget ~trail f

let solve_pcnf ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  measured (fun () -> solve_refined ~config ~budget ~trail:None pcnf)

(* shared body of the model-producing entry points: the returned Skolem
   witness is unrestricted — it also covers variables the preprocessor
   folded away and undeclared existentials, so it certifies against the
   original (unpreprocessed) formula *)
let solve_pcnf_witness ~config ~budget pcnf =
  let trail = Dqbf.Model_trail.create () in
  match solve_refined ~config ~budget ~trail:(Some trail) pcnf with
  | Unsat -> (Unsat, None)
  | Sat ->
      let skolem = Dqbf.Model_trail.reconstruct trail in
      if config.check_level = Check.Full then
        Check.audit_model ~budget ~stage:Check.Post_solve (Dqbf.Pcnf.to_formula pcnf) skolem;
      (Sat, Some skolem)

let restrict_to_declared pcnf skolem =
  let declared = Hqs_util.Bitset.of_list (List.map fst pcnf.Dqbf.Pcnf.exists) in
  Dqbf.Skolem.restrict skolem ~keep:(fun y -> Hqs_util.Bitset.mem y declared)

let solve_pcnf_model ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  let (verdict, model), stats =
    measured (fun () -> solve_pcnf_witness ~config ~budget pcnf)
  in
  (verdict, Option.map (restrict_to_declared pcnf) model, stats)

let solve_pcnf_certified ?(config = default_config) ?(budget = Budget.unlimited)
    ~instance_text pcnf =
  let (verdict, cert, model), stats =
    measured @@ fun () ->
    let verdict, model = solve_pcnf_witness ~config ~budget pcnf in
    let cert =
      match (verdict, model) with
      | Sat, Some skolem -> Cert.of_skolem ~instance_text pcnf skolem
      | Sat, None ->
          (* the witness entry point always reconstructs a model on Sat *)
          assert false
      | Unsat, _ -> Cert.of_unsat ~budget ~instance_text pcnf
    in
    (* audit before handing the artifact out: a failure here is the
       recovery-loop trigger, raised as a Check.Violation *)
    Check.audit_certificate ~budget ~level:config.check_level ~instance_text pcnf cert;
    (verdict, cert, model)
  in
  (verdict, cert, Option.map (restrict_to_declared pcnf) model, stats)

(* ------------------------------------------------- per-solve statistics *)

type stat = Count of string | Seconds of string | Dep_scheme | Inproc_mode | Cert_status

(* every per-solve statistic, declared once in CSV column order: the
   harness CSV and [pp_stats] both iterate this list, so a new metric is
   one entry here *)
let stat_columns =
  [
    ("hqs_peak_nodes", Count "hqs.peak_nodes");
    ("hqs_univ_elims", Count "elim.universal");
    ("hqs_exist_elims", Count "elim.existential");
    ("hqs_unitpure_elims", Count "hqs.unitpure_elims");
    ("hqs_maxsat_set", Count "hqs.maxsat_set");
    ("hqs_maxsat_time", Seconds "hqs.maxsat_time_s");
    ("hqs_qbf_time", Seconds "hqs.qbf_time_s");
    ("hqs_sat_conflicts", Count "sat.conflicts");
    ("hqs_sat_propagations", Count "sat.propagations");
    ("hqs_checks", Count "check.audits");
    ("hqs_dep_scheme", Dep_scheme);
    ("hqs_analysis_edges_pruned", Count "analysis.edges_pruned");
    ("hqs_analysis_linearized", Count "analysis.linearized");
    ("hqs_inproc_mode", Inproc_mode);
    ("hqs_inproc_rounds", Count "inproc.rounds");
    ("hqs_inproc_units", Count "inproc.units");
    ("hqs_inproc_scc_merges", Count "inproc.scc_merges");
    ("hqs_inproc_subsumed", Count "inproc.subsumed");
    ("hqs_inproc_strengthened", Count "inproc.strengthened");
    ("hqs_inproc_clauses_removed", Count "inproc.clauses_removed");
    ("hqs_inproc_lits_removed", Count "inproc.lits_removed");
    ("hqs_cert_status", Cert_status);
  ]

let metric stats name = Option.value ~default:0.0 (List.assoc_opt name stats.metrics)

let stat_cell ~config ~verdict stats = function
  | Count name -> string_of_int (int_of_float (metric stats name))
  | Seconds name -> Printf.sprintf "%.3f" (metric stats name)
  | Dep_scheme -> Analysis.Scheme.name config.dep_scheme
  | Inproc_mode -> Inproc.mode_name config.preprocess.Dqbf.Preprocess.inproc
  | Cert_status -> (
      if metric stats "cert.uncertified" > 0.0 then "UNCERTIFIED"
      else if metric stats "cert.emitted" = 0.0 then "-"
      else match verdict with Some Sat -> "SAT" | Some Unsat -> "UNSAT" | None -> "-")

(* the --stats key of a CSV column: hqs_maxsat_set -> maxsat-set *)
let stat_key column =
  String.map (fun c -> if c = '_' then '-' else c) (String.sub column 4 (String.length column - 4))

let pp_stats ~config ~verdict fmt stats =
  Format.pp_print_string fmt
    (String.concat " "
       (List.map
          (fun (column, stat) -> stat_key column ^ "=" ^ stat_cell ~config ~verdict stats stat)
          stat_columns))
