open Hqs_util
module L = Sat.Lit
module M = Aig.Man

type stats = { gates : int }

type config = { gate_detection : bool; inproc : Inproc.mode }

let default_config = { gate_detection = true; inproc = Inproc.default_mode }
let off = { gate_detection = false; inproc = Inproc.Off }

type outcome = Unsat | Formula of Formula.t * stats

(* the engine publishes its own inproc.* counters; the number of gates
   substituted into the AIG is counted here *)
let c_gates = Obs.Metrics.counter "preprocess.gates"

(* ---------------------------------------------------------------- build *)

(* the matrix conjoins the engine's surviving clauses in arena order; the
   gates' functions are substituted for their outputs *)
let build_formula ?node_limit ?trail (res : Inproc.result) =
  let f = Formula.create ?node_limit () in
  Bitset.iter (Formula.add_universal f) res.Inproc.univs;
  (* gate outputs stay declared until substitution, then are removed *)
  List.iter (fun (y, d) -> Formula.add_existential f y ~deps:d) res.Inproc.deps;
  let man = Formula.man f in
  let aig_lit l = M.apply_sign (M.input man (L.var l)) ~neg:(L.is_neg l) in
  let matrix =
    M.mk_and_list man
      (List.map (fun c -> M.mk_or_list man (List.map aig_lit c)) res.Inproc.clauses)
  in
  let gates = res.Inproc.gates in
  (* resolve gate functions in topological order *)
  let gate_tbl = Hashtbl.create 16 in
  List.iter (fun (g : Inproc.gate) -> Hashtbl.replace gate_tbl g.Inproc.out_var g) gates;
  let final : (int, M.lit) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve_var ?(seen = []) v : M.lit =
    if List.mem v seen then M.input man v (* defensive: cycle, keep as input *)
    else begin
      match Hashtbl.find_opt final v with
      | Some l -> l
      | None ->
          let l =
            match Hashtbl.find_opt gate_tbl v with
            | None -> M.input man v
            | Some g ->
                let seen = v :: seen in
                let of_lit l =
                  M.apply_sign (resolve_var ~seen (L.var l)) ~neg:(L.is_neg l)
                in
                let body =
                  match g.Inproc.fn with
                  | Inproc.G_and (a, b) -> M.mk_and man (of_lit a) (of_lit b)
                  | Inproc.G_xor (a, b) -> M.mk_xor man (of_lit a) (of_lit b)
                in
                M.apply_sign body ~neg:g.Inproc.out_neg
          in
          Hashtbl.replace final v l;
          l
    end
  in
  let subst v =
    match Hashtbl.find_opt gate_tbl v with
    | None -> None
    | Some _ -> Some (resolve_var v)
  in
  let matrix = M.compose man matrix subst in
  List.iter
    (fun (g : Inproc.gate) ->
      Option.iter
        (fun trail -> Model_trail.record_def trail man g.out_var (resolve_var g.out_var))
        trail;
      Formula.remove_existential f g.out_var)
    gates;
  Formula.set_matrix f matrix;
  f

(* -------------------------------------------------- inproc delegation *)

(* undeclared variables are the engine's to declare *)
let problem_of_pcnf (pcnf : Pcnf.t) =
  {
    Inproc.num_vars = pcnf.Pcnf.num_vars;
    univs = Bitset.of_list pcnf.Pcnf.univs;
    deps = Pcnf.dep_sets pcnf;
    clauses = List.map Inproc.clause_of_dimacs pcnf.Pcnf.clauses;
  }

(* Replay the engine's step witnesses into the model trail, in
   chronological order (reconstruction walks newest-first, so the Skolem
   function of a variable merged early correctly picks up the later
   definitions of whatever it was rewritten to). Units and merges map
   directly onto trail primitives. *)
let replay_steps trail steps =
  List.iter
    (fun step ->
      match step with
      | Inproc.Unit l -> Model_trail.record_const trail (L.var l) (L.is_pos l)
      | Inproc.Merged { y; rep } ->
          Model_trail.record_literal trail y ~var:(L.var rep) ~neg:(L.is_neg rep)
      | Inproc.Reduced _ | Inproc.Subsumed _ | Inproc.Strengthened _ -> ())
    steps

let run_inproc ?(mode = Inproc.default_mode) (pcnf : Pcnf.t) =
  Inproc.run ~config:(Inproc.config_of_mode mode) (problem_of_pcnf pcnf)

let run ?(config = default_config) ?budget ?node_limit ?trail ?on_inproc (pcnf : Pcnf.t) =
  Obs.Span.with_ "preprocess"
    ~attrs:
      [
        ("clauses", Obs.Int (List.length pcnf.Pcnf.clauses));
        ("vars", Obs.Int pcnf.Pcnf.num_vars);
      ]
  @@ fun () ->
  match
    Inproc.run ~config:(Inproc.config_of_mode config.inproc) ?budget
      ~gates:config.gate_detection (problem_of_pcnf pcnf)
  with
  | Inproc.Unsat as outcome ->
      Option.iter (fun k -> k outcome) on_inproc;
      Unsat
  | Inproc.Simplified res as outcome ->
      Option.iter (fun k -> replay_steps k res.Inproc.steps) trail;
      Option.iter (fun k -> k outcome) on_inproc;
      Option.iter Hqs_util.Budget.check budget;
      let f = build_formula ?node_limit ?trail res in
      let n = List.length res.Inproc.gates in
      Obs.Metrics.incr ~by:n c_gates;
      Obs.Span.event "preprocess.done" ~attrs:[ ("gates", Obs.Int n) ] ();
      Formula (f, { gates = n })
