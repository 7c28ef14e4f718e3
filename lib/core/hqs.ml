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
    preprocess = Dqbf.Preprocess.default_config;
    mode = Elimination;
    use_unitpure = true;
    use_thm2 = true;
    use_maxsat = true;
    node_limit = None;
    check_level = Check.Off;
    dep_scheme = Analysis.Scheme.default;
  }

let escalated_config config = { config with check_level = Check.Full }

type stats = { metrics : (string * float) list }

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

(* one SAT call on the matrix, or on its negation; with the model's
   variable values on a satisfiable answer *)
let sat_check ~budget man root ~negate =
  let solver = Sat.Solver.create () in
  let enc = Aig.Cnf_enc.create solver in
  let out = Aig.Cnf_enc.sat_lit man enc root in
  Sat.Solver.add_clause solver [ (if negate then Sat.Lit.neg out else out) ];
  match Sat.Solver.solve ~budget solver with
  | Sat.Solver.Sat ->
      (true, fun v -> Sat.Solver.lit_value solver (Aig.Cnf_enc.sat_var_of_aig_var man enc v))
  | Sat.Solver.Unsat -> (false, fun _ -> false)

let solve_impl ~(config : config) ~budget ~trail f0 =
  Obs.Span.with_ "hqs.solve" ~attrs:[ ("vars", Obs.Int (F.next_var f0)) ] @@ fun () ->
  let f = F.copy f0 in
  M.set_node_limit (F.man f) config.node_limit;
  let queue = ref [] in
  let last_size = ref (M.num_nodes (F.man f)) in
  let first_select = ref true in
  let note_heap () = Obs.Metrics.set_max g_heap (float_of_int (Budget.heap_words ())) in
  (* the heap gauge samples only the rounds before linearization, so it
     stays comparable with the committed perfbench baselines (DESIGN.md
     §8.2) *)
  let linear = ref false in
  let note_size () =
    note_peak (M.num_nodes (F.man f));
    if not !linear then note_heap ()
  in
  (* the soundness gate at each stage boundary (free when check_level=Off) *)
  let audit ?queue stage = Check.audit_stage ~level:config.check_level ?queue stage f in
  let compact () =
    (Obs.Span.with_ "aig.compact" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ]
    @@ fun () ->
    let man, roots = M.compact (F.man f) [ F.matrix f ] in
    F.replace_man f man (List.hd roots);
    last_size := M.num_nodes man);
    audit Check.Post_compact
  in
  let compact_if_grown () =
    note_size ();
    if M.num_nodes (F.man f) > (2 * !last_size) + 1024 then compact ()
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
  let rec next_univ () =
    match !queue with
    | x :: rest ->
        queue := rest;
        if F.is_universal f x then Some x else next_univ ()
    | [] -> None
  in
  (* the cyclic phase: one Theorem-2 step while an existential depends on
     every universal, else one universal elimination (Theorem 1) from the
     MaxSAT elimination set, until the dependency graph is acyclic
     (Theorem 4) *)
  let cyclic_step () =
    let must_linearize =
      match config.mode with
      | Elimination -> not (Dqbf.Depgraph.is_acyclic f)
      | Expand_all -> not (Bitset.is_empty (F.universals f))
    in
    if not must_linearize then `Linear
    else if config.use_thm2 && Obs.Span.with_ "elim.thm2" (fun () -> Dqbf.Elim.theorem2 ?trail f)
    then begin
      audit Check.Post_elimination;
      `Continue
    end
    else begin
      let x =
        match next_univ () with
        | Some x -> Some x
        | None ->
            refill_queue ();
            next_univ ()
      in
      (match x with
      | Some x ->
          Dqbf.Elim.universal ?trail f x;
          audit ~queue:!queue Check.Post_elimination;
          compact_if_grown ()
      | None ->
          (* no universal left to eliminate; the dependency graph must be
             acyclic now *)
          assert (Dqbf.Depgraph.is_acyclic f));
      `Continue
    end
  in
  (* the acyclic phase: a linear prefix. With one quantifier kind left, one
     SAT call decides; otherwise the innermost block loses its cheapest
     variable *)
  let acyclic_step () =
    if Bitset.is_empty (F.universals f) then begin
      let answer, value = sat_check ~budget (F.man f) (F.matrix f) ~negate:false in
      if answer then
        Option.iter
          (fun trail ->
            List.iter (fun (y, _) -> Dqbf.Model_trail.record_const trail y (value y)) (F.existentials f))
          trail;
      `Decided (if answer then Sat else Unsat)
    end
    else if F.existentials f = [] then begin
      let counterexample, _ = sat_check ~budget (F.man f) (F.matrix f) ~negate:true in
      `Decided (if counterexample then Unsat else Sat)
    end
    else begin
      Dqbf.Elim.innermost ?trail f;
      audit Check.Post_elimination;
      compact_if_grown ();
      `Continue
    end
  in
  let unit_pure () =
    timed g_unitpure_time @@ fun () ->
    Obs.Span.with_ "elim.unitpure" (fun () -> Dqbf.Elim.unit_pure_round ?trail f)
  in
  (* the rounds of the main loop, up to the verdict: each checks the
     budget and the matrix, prunes the prefix and runs unit/pure
     elimination (Theorems 5-6); when that eliminates nothing, it takes
     [step] *)
  let rec rounds step =
    note_size ();
    Budget.check budget;
    if M.is_true (F.matrix f) then Sat
    else if M.is_false (F.matrix f) then Unsat
    else begin
      Dqbf.Elim.prune_prefix ?trail f;
      match if config.use_unitpure then unit_pure () else `None with
      | `Unsat -> Unsat
      | `Eliminated n ->
          Obs.Metrics.incr ~by:n m_unitpure_elims;
          audit Check.Post_unitpure;
          compact_if_grown ();
          rounds step
      | `None -> (
          match step () with
          | `Continue -> rounds step
          | `Decided v -> v
          | `Linear -> linear_phase ())
    end
  (* the switch to the acyclic phase, once: eliminations never make two
     dependency sets incomparable, so the graph stays acyclic *)
  and linear_phase () =
    timed g_qbf_time @@ fun () ->
    Obs.Span.with_ "qbf.backend" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ] @@ fun () ->
    Obs.Span.with_ "qbf.elim" ~attrs:[ ("nodes", Obs.Int (M.num_nodes (F.man f))) ] @@ fun () ->
    linear := true;
    (* matrix variables the prefix does not bind are outermost existentials *)
    Bitset.iter
      (fun v ->
        if not (F.is_universal f v || F.is_existential f v) then
          F.add_existential f v ~deps:Bitset.empty)
      (M.support (F.man f) (F.matrix f));
    compact ();
    audit Check.Post_linearize;
    rounds acyclic_step
  in
  let verdict =
    try rounds cyclic_step
    with Budget.Out_of_memory_budget ->
      (* a node-limit raise leaves the manager at the limit: that is the
         peak a memout's stats line must show *)
      note_peak (M.num_nodes (F.man f));
      note_heap ();
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
   analysis, inproc, gate detection, the solve and certification alike.
   [run] reads the same delta when the call raises. *)
let start_call () =
  List.iter (fun g -> Obs.Metrics.set g 0.0) per_call_gauges;
  Obs.Metrics.snapshot ()

let stats_since before =
  { metrics = Obs.Metrics.to_assoc (Obs.Metrics.delta ~before ~after:(Obs.Metrics.snapshot ())) }

let measured run =
  let before = start_call () in
  let result = run () in
  (result, stats_since before)

let solve_formula ?(config = default_config) ?(budget = Budget.unlimited) f0 =
  measured (fun () -> solve_impl ~config ~budget ~trail:None f0)

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
    Dqbf.Preprocess.run ~config:config.preprocess ~budget ?node_limit:config.node_limit ?trail
      ~on_inproc refined
  with
  | Dqbf.Preprocess.Unsat -> Unsat
  | Dqbf.Preprocess.Formula (f, _) ->
      Check.audit_stage ~level:config.check_level Check.Post_preprocess f;
      solve_impl ~config ~budget ~trail f
  | exception Budget.Out_of_memory_budget when not (Budget.mem_exceeded budget) ->
      (* the AIG build hit the node limit: its manager stands at the
         limit, the peak a memout's stats must show *)
      Option.iter note_peak config.node_limit;
      raise Budget.Out_of_memory_budget

let solve_pcnf ?(config = default_config) ?(budget = Budget.unlimited) pcnf =
  measured (fun () -> solve_refined ~config ~budget ~trail:None pcnf)

(* the solve with its Skolem witness on Sat. The witness is
   unrestricted — it also covers variables the preprocessor folded away
   and undeclared existentials, so it certifies against the original
   (unpreprocessed) formula; at [Full] it is certified before it is
   handed out: a wrong Skolem function means some stage lied *)
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

(* the certificate of a finished solve (the witness is [Some] exactly on
   Sat), audited before it is handed out: a failure here is the
   recovery-loop trigger, raised as a Check.Violation *)
let certificate ~config ~budget ~instance_text pcnf witness =
  let cert =
    match witness with
    | Some skolem -> Cert.of_skolem ~instance_text pcnf skolem
    | None -> Cert.of_unsat ~budget ~instance_text pcnf
  in
  Check.audit_certificate ~budget ~level:config.check_level ~instance_text pcnf cert;
  cert

type outcome = Verdict of verdict | Timeout | Memout

type run = {
  outcome : outcome;
  elapsed_s : float;
  stats : stats;
  model : Dqbf.Skolem.t option;
  cert : Cert.t option;
}

let run ?(config = default_config) ?(budget = Budget.unlimited) ?(model = false) ?certify pcnf =
  let t0 = Budget.now () in
  let before = start_call () in
  let solve () =
    if (not model) && Option.is_none certify then
      (solve_refined ~config ~budget ~trail:None pcnf, None, None)
    else
      let verdict, witness = solve_pcnf_witness ~config ~budget pcnf in
      let cert instance_text = certificate ~config ~budget ~instance_text pcnf witness in
      (verdict, witness, Option.map cert certify)
  in
  let finish ?witness ?cert outcome =
    {
      outcome;
      elapsed_s = Budget.now () -. t0;
      stats = stats_since before;
      model = Option.map (restrict_to_declared pcnf) witness;
      cert;
    }
  in
  match solve () with
  | verdict, witness, cert -> finish ?witness ?cert (Verdict verdict)
  | exception Budget.Timeout -> finish Timeout
  (* real heap exhaustion is the same memout as the node limit *)
  | exception (Budget.Out_of_memory_budget | Stdlib.Out_of_memory) -> finish Memout

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
