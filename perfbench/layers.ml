(* The traced pass: where the solve time of a workload's instances goes.

   The bench replays [Hqs.solve_pcnf]'s pipeline through its four public
   calls (parse, dependency analysis, preprocessing, [Hqs.solve_formula])
   with spans of its own around each. At the default check level the
   audits [solve_pcnf] runs between them are no-ops, so this is the same
   pipeline, and its verdict is checked against the generator's answer,
   like every [hqs] run's. Preprocessing is split into the
   inprocessing engine and gate detection plus AIG build by a timestamp
   taken in its [on_inproc] callback. Inside [solve_formula], whose
   stages interleave, the layers are the self times of the spans the
   solver already emits. *)

let now = Hqs_util.Budget.now

type sample = {
  wall : float;
  parse : float;
  rp : float;
  inproc : float;
  gates_aig : float;
  sat : bool;
  counters : (string * float) list;  (** this solve's metric registry *)
}

let pipeline text =
  let config = Hqs.default_config in
  Obs.Metrics.reset_all ();
  (* every solve starts from a compacted heap, as a fresh process would,
     so the traced and untraced runs of one instance are comparable *)
  Gc.compact ();
  let t0 = now () in
  let pcnf = Obs.Span.with_ "bench.parse" (fun () -> Dqbf.Pcnf.parse_string text) in
  let t1 = now () in
  let refined, _report =
    Obs.Span.with_ "bench.analysis" (fun () ->
        Analysis.Rp.analyze ~scheme:config.Hqs.dep_scheme pcnf)
  in
  let t2 = now () in
  let t_inproc = ref t2 in
  let pre =
    Obs.Span.with_ "bench.preprocess" (fun () ->
        Dqbf.Preprocess.run ~config:config.Hqs.preprocess ?node_limit:config.Hqs.node_limit
          ~on_inproc:(fun _ -> t_inproc := now ())
          refined)
  in
  let t3 = now () in
  let sat =
    match pre with
    | Dqbf.Preprocess.Unsat -> false
    | Dqbf.Preprocess.Formula (f, _) -> (
        match Obs.Span.with_ "bench.solve" (fun () -> Hqs.solve_formula ~config f) with
        | Hqs.Sat, _ -> true
        | Hqs.Unsat, _ -> false)
  in
  let t4 = now () in
  {
    wall = t4 -. t0;
    parse = t1 -. t0;
    rp = t2 -. t1;
    inproc = !t_inproc -. t2;
    gates_aig = t3 -. !t_inproc;
    sat;
    counters = Obs.Metrics.to_assoc (Obs.Metrics.snapshot ());
  }

(* layer rows inside [solve_formula]: sums of span self times *)
let solver_rows =
  [
    ("elim.select_s", [ "elim.select"; "maxsat.solve" ]);
    ("elim.unitpure_s", [ "elim.unitpure" ]);
    ("elim.thm2_s", [ "elim.thm2" ]);
    ("elim.expand_s", [ "elim.expand" ]);
    ("aig.compact_s", [ "aig.compact" ]);
    ("fraig.reduce_s", [ "fraig.reduce" ]);
    ("qbf.elim_s", [ "qbf.elim" ]);
  ]

(* counters summed over the workload's solves, reported as-is *)
let counter_metrics =
  [
    "analysis.edges_pruned";
    "inproc.clauses_removed";
    "preprocess.gates";
    "maxsat.iterations";
    "hqs.maxsat_set";
    "elim.universal";
    "elim.node_growth.sum";
    "aig.nodes_alloc";
    "hqs.peak_nodes";
    "fraig.sat_checks";
    "qbf.elim.quantifications";
    "sat.conflicts";
    "sat.propagations";
  ]

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let counter samples name =
  sum (fun s -> Option.value ~default:0.0 (List.assoc_opt name s.counters)) samples

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Runs every instance three times untraced (the median is the
   reference for [trace.overhead_s]), then once under tracing; writes the
   Chrome trace to [trace_path], prints the layer table and returns the
   layer metrics. *)
let pass ~(ctx : Ctx.t) ~trace_path (insts : Instances.t list) =
  let untraced =
    List.map
      (fun (inst : Instances.t) ->
        Stats.median (List.init 3 (fun _ -> (pipeline inst.Instances.text).wall)))
      insts
  in
  Obs.Trace.start ();
  let samples = List.map (fun (inst : Instances.t) -> pipeline inst.Instances.text) insts in
  Obs.Trace.stop ();
  Obs.Trace.write_chrome_json trace_path;
  List.iter2
    (fun (inst : Instances.t) s ->
      Ctx.check ctx (s.sat = inst.Instances.sat) "traced solve of %s: %s, expected %s"
        inst.Instances.id (if s.sat then "SAT" else "UNSAT")
        (if inst.Instances.sat then "SAT" else "UNSAT"))
    insts samples;
  let totals = Obs.Trace.totals () in
  let self span =
    List.fold_left
      (fun acc t -> if String.equal t.Obs.Trace.span span then acc +. t.Obs.Trace.self_s else acc)
      0.0 totals
  in
  let wall = sum (fun s -> s.wall) samples in
  let rows =
    [
      ("pcnf.parse_s", sum (fun s -> s.parse) samples);
      ("analysis.rp_s", sum (fun s -> s.rp) samples);
      ("inproc.run_s", sum (fun s -> s.inproc) samples);
      ("preprocess.gates_aig_s", sum (fun s -> s.gates_aig) samples);
    ]
    @ List.map (fun (name, spans) -> (name, sum self spans)) solver_rows
  in
  let unattributed = wall -. sum snd rows in
  let share name = ratio (List.assoc name rows) wall in
  let frontend =
    sum share [ "pcnf.parse_s"; "analysis.rp_s"; "inproc.run_s"; "preprocess.gates_aig_s" ]
  in
  Printf.printf "layer table (traced wall %.3f s over %d solves)\n" wall (List.length samples);
  List.iter
    (fun (name, v) -> Printf.printf "  %-24s %10.4f s %6.1f%%\n" name v (100.0 *. ratio v wall))
    (rows @ [ ("unattributed", unattributed) ]);
  Printf.printf "  front end %.1f%%, qbf.elim + fraig.reduce %.1f%%\n" (100.0 *. frontend)
    (100.0 *. (share "qbf.elim_s" +. share "fraig.reduce_s"));
  let n = List.length samples in
  let m = Ctx.metric ~n in
  List.map (fun (name, v) -> m name "s" v) rows
  @ [
      m "traced_wall_s" "s" wall;
      m "hqs.unattributed_s" "s" unattributed;
      m "trace.overhead_s" "s" (wall -. sum Fun.id untraced);
      m "aig.strash_hit_ratio" "ratio"
        (ratio (counter samples "aig.strash_hits")
           (counter samples "aig.strash_hits" +. counter samples "aig.strash_misses"));
      m "fraig.merge_ratio" "ratio"
        (ratio (counter samples "fraig.merges") (counter samples "fraig.sat_checks"));
    ]
  @ List.map (fun name -> m name "count" (counter samples name)) counter_metrics

(* [hqs FILE --certify OUT] then [certcheck FILE OUT] per instance.
   certcheck's refutation engine is a plain DPLL, exponential on the
   tautology check of a large Skolem certificate, so a check still
   running after [certcheck_deadline] seconds is stopped and counted as
   unchecked, a declared gap like an UNCERTIFIED artifact. *)
let certcheck_deadline = 2.0

let cert_pass ~(ctx : Ctx.t) ~dir (insts : Instances.t list) =
  let certify = ref 0.0 and check = ref 0.0 in
  let verified = ref 0 and uncertified = ref 0 and unchecked = ref 0 in
  List.iter
    (fun (inst : Instances.t) ->
      let file = Instances.path dir inst in
      let cert = Filename.concat ctx.Ctx.work "artifact.cert" in
      let r =
        Proc.run ~work:ctx.Ctx.work ~tag:"certify" ctx.Ctx.hqs
          [ file; "--certify"; cert; "-t"; "60" ]
      in
      certify := !certify +. r.Proc.wall_s;
      let v = Ctx.verdict_of_code r.Proc.code in
      Ctx.check ctx (v = Some inst.Instances.sat) "hqs --certify %s: exit %d" inst.Instances.id
        r.Proc.code;
      if Option.is_some v then
        match
          Proc.run_within ~seconds:certcheck_deadline ~work:ctx.Ctx.work ~tag:"certcheck"
            ctx.Ctx.certcheck [ file; cert ]
        with
        | None ->
            check := !check +. certcheck_deadline;
            incr unchecked
        | Some c ->
            check := !check +. c.Proc.wall_s;
            if c.Proc.code = 0 then incr verified
            else if c.Proc.code = 3 then incr uncertified;
            Ctx.check ctx
              (c.Proc.code = 0 || c.Proc.code = 3)
              "certcheck %s: exit %d %s" inst.Instances.id c.Proc.code (String.trim c.Proc.out))
    insts;
  let n = List.length insts in
  let m = Ctx.metric ~n in
  [
    m "cert.certify_s" "s" !certify;
    m "certcheck_s" "s" !check;
    m "cert.verified" "count" (float_of_int !verified);
    m "cert.uncertified" "count" (float_of_int !uncertified);
    m "cert.unchecked" "count" (float_of_int !unchecked);
  ]
