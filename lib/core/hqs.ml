open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

type verdict = Sat | Unsat
type mode = Elimination | Expand_all
type qbf_backend = Elim_backend | Search_backend

type config = {
  preprocess : Dqbf.Preprocess.config;
  mode : mode;
  use_unitpure : bool;
  use_thm2 : bool;
  use_maxsat : bool;
  use_fraig : bool;
  fraig_threshold : int;
  use_sat_probe : bool;
  node_limit : int option;
  qbf : Qbf.Solver.config;
  qbf_backend : qbf_backend;
  chaos : Chaos.t;
  restart_on_memout : bool;
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
    use_fraig = true;
    fraig_threshold = 50000;
    use_sat_probe = false;
    node_limit = None;
    qbf = Qbf.Solver.default_config;
    qbf_backend = Elim_backend;
    chaos = Chaos.off;
    restart_on_memout = true;
    (* a malformed HQS_CHECK is reported by the CLI; library users who
       bypass it get the safe default *)
    check_level = (match Check.level_of_env () with Ok l -> l | Error _ -> Check.Off);
    (* same contract as HQS_CHECK: a malformed HQS_DEP_SCHEME is reported
       by the CLI; library users get the default scheme *)
    dep_scheme =
      (match Analysis.Scheme.of_env () with Ok s -> s | Error _ -> Analysis.Scheme.default);
  }

(* the bounded-restart config: keep the same resource limits but trade
   speed for compactness — sweep aggressively and use the search back
   end, which does not grow the AIG *)
let degraded_config config =
  {
    config with
    use_fraig = true;
    fraig_threshold = min config.fraig_threshold 1000;
    qbf_backend = Search_backend;
  }

type stats = {
  mutable pre_stats : Dqbf.Preprocess.stats option;
  mutable univ_elims : int;
  mutable exist_elims : int;
  mutable unitpure_elims : int;
  mutable maxsat_runs : int;
  mutable maxsat_set_size : int;
  mutable maxsat_time : float;
  mutable unitpure_time : float;
  mutable qbf_time : float;
  mutable peak_nodes : int;
  mutable total_time : float;
  mutable restarts : int;
  mutable degraded : string list;
  mutable check_level : string;
  mutable checks_run : int;
  mutable sat_conflicts : int;
  mutable sat_propagations : int;
  mutable fraig_merges : int;
  mutable dep_scheme : string;
  mutable analysis_edges_pruned : int;
  mutable analysis_linearized : bool;
  mutable inproc_mode : string;
  mutable inproc_rounds : int;
  mutable inproc_units : int;
  mutable inproc_scc_merges : int;
  mutable inproc_subsumed : int;
  mutable inproc_strengthened : int;
  mutable inproc_failed_lits : int;
  mutable inproc_bve : int;
  mutable inproc_clauses_removed : int;
  mutable inproc_lits_removed : int;
  mutable cert_status : string;
  mutable metrics : (string * float) list;
}

let fresh_stats () =
  {
    pre_stats = None;
    univ_elims = 0;
    exist_elims = 0;
    unitpure_elims = 0;
    maxsat_runs = 0;
    maxsat_set_size = 0;
    maxsat_time = 0.0;
    unitpure_time = 0.0;
    qbf_time = 0.0;
    peak_nodes = 0;
    total_time = 0.0;
    restarts = 0;
    degraded = [];
    check_level = "off";
    checks_run = 0;
    sat_conflicts = 0;
    sat_propagations = 0;
    fraig_merges = 0;
    dep_scheme = Analysis.Scheme.name Analysis.Scheme.Trivial;
    analysis_edges_pruned = 0;
    analysis_linearized = false;
    inproc_mode = Inproc.mode_name Inproc.Off;
    inproc_rounds = 0;
    inproc_units = 0;
    inproc_scc_merges = 0;
    inproc_subsumed = 0;
    inproc_strengthened = 0;
    inproc_failed_lits = 0;
    inproc_bve = 0;
    inproc_clauses_removed = 0;
    inproc_lits_removed = 0;
    cert_status = "-";
    metrics = [];
  }

exception Done of verdict

let sat_probe ~budget f =
  (* if the matrix alone is unsatisfiable, no Skolem functions exist *)
  let solver = Sat.Solver.create () in
  let enc = Aig.Cnf_enc.create solver in
  let out = Aig.Cnf_enc.sat_lit (F.man f) enc (F.matrix f) in
  Sat.Solver.add_clause solver [ out ];
  match Sat.Solver.solve ~budget ~conflict_limit:20000 solver with
  | Sat.Solver.Unsat -> raise (Done Unsat)
  | Sat.Solver.Sat | Sat.Solver.Unknown -> ()

let rollback_opt trail mark =
  match (trail, mark) with
  | Some trail, Some m -> Dqbf.Model_trail.rollback trail m
  | _ -> ()

let g_heap = Obs.Metrics.gauge "gc.heap_words.peak"

(* mirrors of [stats] fields that otherwise live only in the in-process
   record: shipping them through the metric registry lets the sweep
   supervisor rebuild a partial stats row for a worker that was killed by
   the wall-clock or memory governor before it could send its result
   frame (the registry delta rides in every partial IPC flush) *)
let g_restarts = Obs.Metrics.gauge "hqs.restarts"
let g_peak_nodes = Obs.Metrics.gauge "hqs.peak_nodes"
let m_unitpure_elims = Obs.Metrics.counter "hqs.unitpure_elims"
let g_maxsat_set = Obs.Metrics.gauge "hqs.maxsat_set"
let g_maxsat_time = Obs.Metrics.gauge "hqs.maxsat_time_s"
let g_unitpure_time = Obs.Metrics.gauge "hqs.unitpure_time_s"
let g_qbf_time = Obs.Metrics.gauge "hqs.qbf_time_s"

let metric_int m name =
  match Obs.Metrics.find m name with Some v -> int_of_float v | None -> 0

let solve_impl ~config ~budget ~trail ~ledger ~restarts f0 =
  let t_start = Budget.now () in
  let m_before = Obs.Metrics.snapshot () in
  let stats = fresh_stats () in
  stats.restarts <- restarts;
  Obs.Metrics.set_max g_restarts (float_of_int restarts);
  stats.check_level <- Check.level_name (config : config).check_level;
  Obs.Span.with_ "hqs.solve"
    ~attrs:[ ("restarts", Obs.Int restarts); ("vars", Obs.Int (F.next_var f0)) ]
  @@ fun () ->
  let f = F.copy f0 in
  M.set_node_limit (F.man f) config.node_limit;
  (* on a degraded restart, squeeze the matrix before eliminating: the
     blowup that caused the memout is often pure functional redundancy *)
  if restarts > 0 && config.use_fraig && M.cone_size (F.man f) (F.matrix f) > 64 then
    Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"fraig.initial" ~action:"skip"
      ~sub_seconds:5.0 ~sub_frac:0.25
      ~primary:(fun b ->
        let man, roots = Aig.Fraig.reduce ~budget:b (F.man f) [ F.matrix f ] in
        F.replace_man f man (List.hd roots))
      ~fallback:(fun () -> ())
      ();
  let queue = ref [] in
  let last_size = ref (M.num_nodes (F.man f)) in
  let fraig_floor = ref 0 in
  let note_size () =
    stats.peak_nodes <- max stats.peak_nodes (M.num_nodes (F.man f));
    Obs.Metrics.set_max g_peak_nodes (float_of_int stats.peak_nodes);
    Obs.Metrics.set_max g_heap (float_of_int (Budget.heap_words ()))
  in
  (* the soundness gate at each stage boundary (free when check_level=Off) *)
  let audit ?queue stage = Check.audit_stage ~level:config.check_level ?queue stage f in
  let compact_or_fraig () =
    note_size ();
    let cone = M.cone_size (F.man f) (F.matrix f) in
    if config.use_fraig && cone > config.fraig_threshold && cone > 2 * !fraig_floor then begin
      (* time-boxed sweep: a local timeout or node blowup degrades to a
         plain compaction instead of aborting the solve *)
      Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"fraig.sweep" ~action:"compact"
        ~sub_seconds:2.0 ~sub_frac:0.2
        ~primary:(fun b ->
          let man, roots = Aig.Fraig.reduce ~budget:b (F.man f) [ F.matrix f ] in
          F.replace_man f man (List.hd roots);
          last_size := M.num_nodes man;
          fraig_floor := M.cone_size man (F.matrix f))
        ~fallback:(fun () ->
          (* give up on sweeping this cone until it doubles again *)
          fraig_floor := cone;
          Obs.Span.with_ "aig.compact" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
          @@ fun () ->
          let man, roots = M.compact (F.man f) [ F.matrix f ] in
          F.replace_man f man (List.hd roots);
          last_size := M.num_nodes man)
        ();
      audit Check.Post_fraig
    end
    else if M.num_nodes (F.man f) > (2 * !last_size) + 1024 then begin
      (Obs.Span.with_ "aig.compact" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
      @@ fun () ->
      let man, roots = M.compact (F.man f) [ F.matrix f ] in
      F.replace_man f man (List.hd roots);
      last_size := M.num_nodes man);
      audit Check.Post_fraig
    end
  in
  let refill_queue () =
    let t0 = Budget.now () in
    Obs.Span.with_ "elim.select"
      ~attrs:[ ("universals", Obs.Int (F.num_universals f)); ("maxsat", Obs.Bool config.use_maxsat) ]
    @@ fun () ->
    let set =
      match config.mode with
      | Expand_all -> Bitset.to_list (F.universals f)
      | Elimination ->
          if config.use_maxsat then
            Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"maxsat.minset"
              ~action:"greedy" ~sub_seconds:5.0 ~sub_frac:0.25
              ~primary:(fun b -> Dqbf.Elimset.minimum_set ~budget:b f)
              ~fallback:(fun () -> Dqbf.Elimset.greedy_all f)
              ()
          else Dqbf.Elimset.greedy_all f
    in
    stats.maxsat_time <- stats.maxsat_time +. (Budget.now () -. t0);
    Obs.Metrics.set_max g_maxsat_time stats.maxsat_time;
    stats.maxsat_runs <- stats.maxsat_runs + 1;
    if stats.maxsat_runs = 1 then begin
      stats.maxsat_set_size <- List.length set;
      Obs.Metrics.set_max g_maxsat_set (float_of_int stats.maxsat_set_size)
    end;
    queue := Dqbf.Elimset.ordered_queue f set
  in
  let verdict =
    try
      if config.use_sat_probe then sat_probe ~budget f;
      let continue_ = ref true in
      while !continue_ do
        Budget.check budget;
        Obs.Sampler.tick ();
        note_size ();
        if M.is_true (F.matrix f) then raise (Done Sat);
        if M.is_false (F.matrix f) then raise (Done Unsat);
        Dqbf.Elim.prune_prefix ?trail f;
        (* unit / pure elimination (Theorems 5-6) *)
        let eliminated_up =
          if not config.use_unitpure then false
          else begin
            let t0 = Budget.now () in
            let r = Obs.Span.with_ "elim.unitpure" (fun () -> Dqbf.Elim.unit_pure_round ?trail f) in
            stats.unitpure_time <- stats.unitpure_time +. (Budget.now () -. t0);
            Obs.Metrics.set_max g_unitpure_time stats.unitpure_time;
            match r with
            | `Unsat -> raise (Done Unsat)
            | `Eliminated n ->
                stats.unitpure_elims <- stats.unitpure_elims + n;
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
              stats.exist_elims <- stats.exist_elims + k;
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
                  if Chaos.fire config.chaos "elim.universal" then begin
                    Degrade.record ledger ~point:"elim.universal" ~action:"memout"
                      ~reason:Degrade.Injected;
                    raise Budget.Out_of_memory_budget
                  end;
                  Dqbf.Elim.universal ?trail f x;
                  stats.univ_elims <- stats.univ_elims + 1;
                  audit ~queue:!queue Check.Post_elimination;
                  compact_or_fraig ()
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
                let t0 = Budget.now () in
                let run_elim stage_budget =
                  let on_define =
                    Option.map
                      (fun trail y man fn -> Dqbf.Model_trail.record_def trail man y fn)
                      trail
                  in
                  Qbf.Solver.solve ~config:config.qbf ~budget:stage_budget ?on_define (F.man f)
                    (F.matrix f) prefix
                in
                let run_search stage_budget =
                  let on_model =
                    Option.map
                      (fun trail mman defs ->
                        List.iter
                          (fun (y, fn) -> Dqbf.Model_trail.record_def trail mman y fn)
                          defs)
                      trail
                  in
                  Qbf.Qdpll.solve ~budget:stage_budget ?on_model (F.man f) (F.matrix f) prefix
                in
                let backend_name =
                  match config.qbf_backend with
                  | Search_backend -> "search"
                  | Elim_backend -> "elim"
                in
                let answer =
                  Obs.Span.with_ "qbf.backend"
                    ~attrs:
                      [
                        ("backend", Obs.Str backend_name);
                        ("nodes", Obs.Int (M.num_nodes (F.man f)));
                      ]
                  @@ fun () ->
                  match config.qbf_backend with
                  | Search_backend -> run_search budget
                  | Elim_backend ->
                      (* elimination can blow the node limit where search
                         cannot: fall back rather than report a memout *)
                      let mark = Option.map Dqbf.Model_trail.mark trail in
                      Degrade.attempt ledger ~chaos:config.chaos ~budget ~point:"qbf.elim"
                        ~action:"search" ~primary:run_elim
                        ~fallback:(fun () ->
                          rollback_opt trail mark;
                          run_search budget)
                        ()
                in
                stats.qbf_time <- stats.qbf_time +. (Budget.now () -. t0);
                Obs.Metrics.set_max g_qbf_time stats.qbf_time;
                raise (Done (if answer then Sat else Unsat))
          end
        end
      done;
      assert false
    with Done v -> v
  in
  (* remaining existentials (if any) are don't-cares on a SAT verdict *)
  (match (verdict, trail) with
  | Sat, Some trail ->
      List.iter (fun (y, _) -> Dqbf.Model_trail.record_const trail y false) (F.existentials f)
  | _ -> ());
  stats.degraded <- List.map Degrade.event_label (Degrade.events ledger);
  (* per-solve view of the process-wide metric registry *)
  let m_delta = Obs.Metrics.delta ~before:m_before ~after:(Obs.Metrics.snapshot ()) in
  stats.checks_run <- metric_int m_delta "check.audits";
  stats.sat_conflicts <- metric_int m_delta "sat.conflicts";
  stats.sat_propagations <- metric_int m_delta "sat.propagations";
  stats.fraig_merges <- metric_int m_delta "fraig.merges";
  stats.metrics <- Obs.Metrics.to_assoc m_delta;
  stats.total_time <- Budget.now () -. t_start;
  (verdict, stats)

(* one bounded restart: a mid-elimination memout (node limit, not the
   heap governor) retries the whole solve once with the degraded config
   before the memout is allowed to escape *)
let solve_recoverable ~config ~budget ~trail f0 =
  let t_start = Budget.now () in
  let ledger = Degrade.create () in
  let mark = Option.map Dqbf.Model_trail.mark trail in
  let verdict, stats =
    try solve_impl ~config ~budget ~trail ~ledger ~restarts:0 f0
    with Budget.Out_of_memory_budget
    when config.restart_on_memout && not (Budget.expired budget)
         && not (Budget.mem_exceeded budget) ->
      rollback_opt trail mark;
      Degrade.record ledger ~point:"solve" ~action:"restart-degraded" ~reason:Degrade.Node_limit;
      solve_impl ~config:(degraded_config config) ~budget ~trail ~ledger ~restarts:1 f0
  in
  stats.total_time <- Budget.now () -. t_start;
  (verdict, stats)

let solve_formula ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  solve_recoverable ~config ~budget ~trail:None f0

let solve_formula_model ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  let trail = Dqbf.Model_trail.create () in
  let verdict, stats = solve_recoverable ~config ~budget ~trail:(Some trail) f0 in
  let model =
    match verdict with
    | Unsat -> None
    | Sat ->
        let skolem = Dqbf.Model_trail.reconstruct trail in
        (* certify the witness against the original matrix before handing
           it out: a wrong Skolem function here means some stage lied *)
        if config.check_level = Check.Full then
          Check.audit_model ~budget ~stage:Check.Post_solve f0 skolem;
        Some (Dqbf.Skolem.restrict skolem ~keep:(Dqbf.Formula.is_existential f0))
  in
  (verdict, model, stats)

(* Static dependency-scheme refinement (lib/analysis), the first pipeline
   stage: prune spurious dependency edges on the prefixed CNF before any
   AIG is built, so CNF preprocessing (universal reduction in particular),
   the MaxSAT elimination-set selector and linearization all see the
   smaller dependency graph. The soundness gate semantically validates a
   sample of pruned edges at [Full] depth. *)
let refine_pcnf ~(config : config) ~budget pcnf =
  let refined, report = Analysis.Rp.analyze ~scheme:config.dep_scheme pcnf in
  Check.audit_dep_pruning ~budget ~level:config.check_level pcnf
    ~pruned:report.Analysis.Rp.pruned;
  (refined, report)

let record_analysis stats (report : Analysis.Rp.report) =
  stats.dep_scheme <- Analysis.Scheme.name report.Analysis.Rp.scheme;
  stats.analysis_edges_pruned <- List.length report.Analysis.Rp.pruned;
  stats.analysis_linearized <- report.Analysis.Rp.linearized

let record_inproc ~(config : config) stats captured =
  stats.inproc_mode <- Inproc.mode_name config.preprocess.Dqbf.Preprocess.inproc;
  match captured with
  | None -> ()
  | Some (res : Inproc.result) ->
      let s = res.Inproc.stats in
      stats.inproc_rounds <- s.Inproc.rounds;
      stats.inproc_units <- s.Inproc.units;
      stats.inproc_scc_merges <- s.Inproc.scc_merges;
      stats.inproc_subsumed <- s.Inproc.subsumed;
      stats.inproc_strengthened <- s.Inproc.strengthened;
      stats.inproc_failed_lits <- s.Inproc.failed_lits;
      stats.inproc_bve <- s.Inproc.bve_eliminated;
      stats.inproc_clauses_removed <- max 0 (s.Inproc.clauses_before - s.Inproc.clauses_after);
      stats.inproc_lits_removed <- max 0 (s.Inproc.lits_before - s.Inproc.lits_after)

(* the front end shared by every PCNF entry point: refine the prefix,
   preprocess (auditing the engine run against the refined CNF it
   consumed), solve, and lift the analysis and engine counters into the
   stats on either verdict *)
let solve_refined ~config ~budget ~trail pcnf =
  let refined, report = refine_pcnf ~config ~budget pcnf in
  let captured = ref None in
  let on_inproc outcome =
    Check.audit_inproc ~budget ~level:config.check_level refined outcome;
    match outcome with
    | Inproc.Simplified res -> captured := Some res
    | Inproc.Unsat -> ()
  in
  let verdict, stats =
    match
      Dqbf.Preprocess.run ~config:config.preprocess ?node_limit:config.node_limit ?trail
        ~on_inproc refined
    with
    | Dqbf.Preprocess.Unsat -> (Unsat, fresh_stats ())
    | Dqbf.Preprocess.Formula (f, pre) ->
        Check.audit_stage ~level:config.check_level Check.Post_preprocess f;
        let verdict, stats = solve_recoverable ~config ~budget ~trail f in
        stats.pre_stats <- Some pre;
        (verdict, stats)
  in
  record_analysis stats report;
  record_inproc ~config stats !captured;
  (verdict, stats)

let solve_pcnf ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  solve_refined ~config ~budget ~trail:None pcnf

(* shared body of the model-producing entry points: the returned Skolem
   witness is unrestricted — it also covers variables the preprocessor
   folded away and undeclared existentials, so it certifies against the
   original (unpreprocessed) formula *)
let solve_pcnf_witness ~config ~budget pcnf =
  let trail = Dqbf.Model_trail.create () in
  let verdict, stats = solve_refined ~config ~budget ~trail:(Some trail) pcnf in
  let model =
    match verdict with
    | Unsat -> None
    | Sat ->
        let skolem = Dqbf.Model_trail.reconstruct trail in
        if config.check_level = Check.Full then
          Check.audit_model ~budget ~stage:Check.Post_solve (Dqbf.Pcnf.to_formula pcnf) skolem;
        Some skolem
  in
  (verdict, model, stats)

let restrict_to_declared pcnf skolem =
  let declared = Hqs_util.Bitset.of_list (List.map fst pcnf.Dqbf.Pcnf.exists) in
  Dqbf.Skolem.restrict skolem ~keep:(fun y -> Hqs_util.Bitset.mem y declared)

let solve_pcnf_model ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  let verdict, model, stats = solve_pcnf_witness ~config ~budget pcnf in
  (verdict, Option.map (restrict_to_declared pcnf) model, stats)

let solve_pcnf_certified ?(config = default_config) ?(budget = Budget.unlimited)
    ~instance_text pcnf =
  let verdict, model, stats = solve_pcnf_witness ~config ~budget pcnf in
  let cert =
    match (verdict, model) with
    | Sat, Some skolem -> Cert.of_skolem ~instance_text pcnf skolem
    | Sat, None ->
        (* the witness entry point always reconstructs a model on Sat *)
        assert false
    | Unsat, _ -> Cert.of_unsat ~budget ~instance_text pcnf
  in
  stats.cert_status <- Cert.status cert;
  (* audit before handing the artifact out: a failure here is the
     recovery-loop trigger, raised as a Check.Violation *)
  Check.audit_certificate ~budget ~level:config.check_level ~instance_text pcnf cert;
  (verdict, cert, Option.map (restrict_to_declared pcnf) model, stats)

let pp_stats fmt s =
  Format.fprintf fmt
    "univ-elims=%d exist-elims=%d unit/pure=%d maxsat-runs=%d maxsat-set=%d maxsat-time=%.3fs \
     unitpure-time=%.3fs qbf-time=%.3fs peak-nodes=%d sat-conflicts=%d sat-propagations=%d \
     fraig-merges=%d checks=%d check-level=%s total=%.3fs restarts=%d degraded=%s \
     dep-scheme=%s dep-pruned=%d linearized=%b inproc=%s inproc-rounds=%d inproc-units=%d \
     inproc-merges=%d inproc-subsumed=%d inproc-strengthened=%d inproc-failed-lits=%d \
     inproc-bve=%d inproc-clauses-removed=%d inproc-lits-removed=%d cert=%s"
    s.univ_elims s.exist_elims s.unitpure_elims s.maxsat_runs s.maxsat_set_size s.maxsat_time
    s.unitpure_time s.qbf_time s.peak_nodes s.sat_conflicts s.sat_propagations s.fraig_merges
    s.checks_run s.check_level s.total_time s.restarts
    (match s.degraded with [] -> "-" | l -> String.concat "," l)
    s.dep_scheme s.analysis_edges_pruned s.analysis_linearized s.inproc_mode s.inproc_rounds
    s.inproc_units s.inproc_scc_merges s.inproc_subsumed s.inproc_strengthened
    s.inproc_failed_lits s.inproc_bve s.inproc_clauses_removed s.inproc_lits_removed
    s.cert_status
