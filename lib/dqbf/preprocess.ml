open Hqs_util
module L = Sat.Lit
module M = Aig.Man

type stats = { gates : int }

type config = { gate_detection : bool; inproc : Inproc.mode }

let default_config = { gate_detection = true; inproc = Inproc.default_mode }
let off = { gate_detection = false; inproc = Inproc.Off }

type outcome = Unsat | Formula of Formula.t * stats

(* the engine publishes its own inproc.* counters; gate detection is the
   work only this module does *)
let c_gates = Obs.Metrics.counter "preprocess.gates"

(* working state of gate detection and the AIG build; literals use the
   MiniSat encoding of {!Sat.Lit} *)
type state = {
  trail : Model_trail.t option;
  univs : Bitset.t;
  deps : (int, Bitset.t) Hashtbl.t; (* existential -> dependency set *)
  mutable clauses : int list list;
}

let is_univ st v = Bitset.mem v st.univs
let is_exist st v = Hashtbl.mem st.deps v

(* -------------------------------------------------------- gate detection *)

type gate_fn = G_and of int * int (* lits *) | G_xor of int * int

type gate = { out_var : int; out_neg : bool; fn : gate_fn; def_clauses : int list list }

let detect_gates st =
  let clause_set = Hashtbl.create 256 in
  List.iter (fun c -> Hashtbl.replace clause_set c ()) st.clauses;
  let present c = Hashtbl.mem clause_set (List.sort_uniq Int.compare c) in
  let defined : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let gates = ref [] in
  (* dependency legality: substituting [out] by a function of [ins] *)
  let legal out ins =
    is_exist st out
    && begin
         let d_out = Hashtbl.find st.deps out in
         List.for_all
           (fun w ->
             if w = out then false
             else if is_univ st w then Bitset.mem w d_out
             else if is_exist st w then Bitset.subset (Hashtbl.find st.deps w) d_out
             else false)
           ins
       end
  in
  let consume gate =
    if (not (Hashtbl.mem defined gate.out_var)) && List.for_all present gate.def_clauses
    then begin
      Hashtbl.add defined gate.out_var ();
      gates := gate :: !gates
    end
  in
  (* AND gates: ternary (p|q|r) + binaries (!p|!q) (!p|!r) gives p = !q & !r *)
  List.iter
    (fun clause ->
      match clause with
      | [ _; _; _ ] ->
          List.iter
            (fun p ->
              let others = List.filter (fun l -> l <> p) clause in
              match others with
              | [ q; r ] ->
                  if
                    present [ L.neg p; L.neg q ]
                    && present [ L.neg p; L.neg r ]
                    && legal (L.var p) [ L.var q; L.var r ]
                  then
                    consume
                      {
                        out_var = L.var p;
                        out_neg = L.is_neg p;
                        fn = G_and (L.neg q, L.neg r);
                        def_clauses = [ clause; [ L.neg p; L.neg q ]; [ L.neg p; L.neg r ] ];
                      }
              | _ -> ())
            clause
      | _ -> ())
    st.clauses;
  (* XOR gates: the four all-odd-negation clauses over a variable triple
     encode v0 ^ v1 ^ v2 = 0 *)
  let triples = Hashtbl.create 64 in
  List.iter
    (fun clause ->
      match List.sort_uniq Int.compare (List.map L.var clause) with
      | [ a; b; c ] when List.length clause = 3 ->
          let key = (a, b, c) in
          let cur = try Hashtbl.find triples key with Not_found -> [] in
          Hashtbl.replace triples key (clause :: cur)
      | _ -> ())
    st.clauses;
  Hashtbl.iter
    (fun (a, b, c) clauses ->
      let sign_pattern clause =
        List.map (fun v -> List.exists (fun l -> L.var v = L.var l && L.is_neg l) clause)
          (List.map L.of_var [ a; b; c ])
      in
      let odd p = List.length (List.filter Fun.id p) mod 2 = 1 in
      let cmp_pattern = List.compare Bool.compare in
      let odd_patterns =
        List.sort_uniq
          (fun (p1, c1) (p2, c2) ->
            let c = cmp_pattern p1 p2 in
            if c <> 0 then c else List.compare Int.compare c1 c2)
          (List.filter_map (fun cl ->
            let p = sign_pattern cl in
            if odd p then Some (p, cl) else None) clauses)
      in
      if List.length (List.sort_uniq cmp_pattern (List.map fst odd_patterns)) = 4 then begin
        (* pick one defining clause per pattern *)
        let defs =
          List.map
            (fun pat -> List.assoc pat odd_patterns)
            (List.sort_uniq cmp_pattern (List.map fst odd_patterns))
        in
        (* choose an output among the triple *)
        let try_out out =
          let ins = List.filter (fun v -> v <> out) [ a; b; c ] in
          if (not (Hashtbl.mem defined out)) && legal out ins then begin
            match ins with
            | [ i1; i2 ] ->
                (* out = i1 ^ i2 since out^i1^i2 = 0 *)
                consume
                  {
                    out_var = out;
                    out_neg = false;
                    fn = G_xor (L.of_var i1, L.of_var i2);
                    def_clauses = defs;
                  };
                true
            | _ -> false
          end
          else false
        in
        ignore (try_out a || try_out b || try_out c)
      end)
    triples;
  (* keep only an acyclic subset of the candidate definitions: a gate is
     accepted once every input that is itself a candidate output has been
     accepted (a cycle leaves all its members rejected, keeping their
     clauses — conservative but sound) *)
  let candidates = List.rev !gates in
  let cand_out = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace cand_out g.out_var g) candidates;
  let gate_inputs g =
    match g.fn with G_and (a, b) | G_xor (a, b) -> [ L.var a; L.var b ]
  in
  let accepted = Hashtbl.create 16 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun g ->
        if
          (not (Hashtbl.mem accepted g.out_var))
          && List.for_all
               (fun v -> (not (Hashtbl.mem cand_out v)) || Hashtbl.mem accepted v)
               (gate_inputs g)
        then begin
          Hashtbl.add accepted g.out_var ();
          progress := true
        end)
      candidates
  done;
  let selected = List.filter (fun g -> Hashtbl.mem accepted g.out_var) candidates in
  List.iter
    (fun g ->
      List.iter (fun c -> Hashtbl.remove clause_set (List.sort_uniq Int.compare c)) g.def_clauses)
    selected;
  st.clauses <- Hashtbl.fold (fun c () acc -> c :: acc) clause_set [];
  selected

(* ---------------------------------------------------------------- build *)

let build_formula ?node_limit st gates =
  let f = Formula.create ?node_limit () in
  Bitset.iter (Formula.add_universal f) st.univs;
  (* gate outputs stay declared until substitution, then are removed *)
  List.iter (fun (y, d) -> Formula.add_existential f y ~deps:d)
    (Hashtbl.fold (fun y d acc -> (y, d) :: acc) st.deps [] |> List.sort (fun (a, _) (b, _) -> Int.compare a b));
  let man = Formula.man f in
  let aig_lit l = M.apply_sign (M.input man (L.var l)) ~neg:(L.is_neg l) in
  let matrix = M.mk_and_list man (List.map (fun c -> M.mk_or_list man (List.map aig_lit c)) st.clauses) in
  (* resolve gate functions in topological order *)
  let gate_tbl = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace gate_tbl g.out_var g) gates;
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
                  match g.fn with
                  | G_and (a, b) -> M.mk_and man (of_lit a) (of_lit b)
                  | G_xor (a, b) -> M.mk_xor man (of_lit a) (of_lit b)
                in
                M.apply_sign body ~neg:g.out_neg
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
    (fun g ->
      Option.iter
        (fun trail -> Model_trail.record_def trail man g.out_var (resolve_var g.out_var))
        st.trail;
      Formula.remove_existential f g.out_var)
    gates;
  Formula.set_matrix f matrix;
  f

(* -------------------------------------------------- inproc delegation *)

let problem_of_pcnf (pcnf : Pcnf.t) =
  let deps = List.map (fun (y, d) -> (y, Bitset.of_list d)) pcnf.Pcnf.exists in
  (* undeclared variables: existential, no dependencies *)
  let declared = Bitset.of_list (pcnf.Pcnf.univs @ List.map fst pcnf.Pcnf.exists) in
  let undeclared = ref [] in
  for v = pcnf.Pcnf.num_vars - 1 downto 0 do
    if not (Bitset.mem v declared) then undeclared := (v, Bitset.empty) :: !undeclared
  done;
  {
    Inproc.num_vars = pcnf.Pcnf.num_vars;
    univs = Bitset.of_list pcnf.Pcnf.univs;
    deps = deps @ !undeclared;
    clauses = List.map (List.map L.of_dimacs) pcnf.Pcnf.clauses;
  }

(* Replay the engine's step witnesses into the model trail, in
   chronological order (reconstruction walks newest-first, so the Skolem
   function of a variable merged or eliminated early correctly picks up
   the later definitions of whatever it was rewritten to). Units and
   merges map directly onto trail primitives; a bounded variable
   elimination of [y] records the canonical reconstruction function
   y := OR over positive clauses C of AND_{l in C, l <> y} !l — when
   some positive clause is otherwise falsified [y] must be true, and the
   resolvents guarantee the negative clauses then hold; otherwise
   [y := false] satisfies the negative side. *)
let replay_steps trail steps =
  let scratch = lazy (M.create ()) in
  List.iter
    (fun step ->
      match step with
      | Inproc.Unit l -> Model_trail.record_const trail (L.var l) (L.is_pos l)
      | Inproc.Merged { y; rep } ->
          Model_trail.record_literal trail y ~var:(L.var rep) ~neg:(L.is_neg rep)
      | Inproc.Eliminated { y; pos; _ } ->
          let man = Lazy.force scratch in
          let aig_lit l = M.apply_sign (M.input man (L.var l)) ~neg:(L.is_neg l) in
          let falsified c =
            M.mk_and_list man
              (List.filter_map
                 (fun l -> if L.var l = y then None else Some (M.compl_ (aig_lit l)))
                 c)
          in
          let fn = M.mk_or_list man (List.map falsified pos) in
          Model_trail.record_def trail man y fn
      | Inproc.Reduced _ | Inproc.Subsumed _ | Inproc.Strengthened _ -> ())
    steps

let run_inproc ?(mode = Inproc.default_mode) (pcnf : Pcnf.t) =
  match Inproc.run ~config:(Inproc.config_of_mode mode) (problem_of_pcnf pcnf) with
  | Inproc.Unsat -> `Unsat
  | Inproc.Simplified res ->
      let simplified =
        {
          Pcnf.num_vars = pcnf.Pcnf.num_vars;
          univs = Bitset.to_list res.Inproc.univs;
          exists = List.map (fun (y, d) -> (y, Bitset.to_list d)) res.Inproc.deps;
          clauses = List.map (List.map L.to_dimacs) res.Inproc.clauses;
        }
      in
      `Done (simplified, res)

let run ?(config = default_config) ?node_limit ?trail ?on_inproc (pcnf : Pcnf.t) =
  Obs.Span.with_ "preprocess"
    ~attrs:
      [
        ("clauses", Obs.Int (List.length pcnf.Pcnf.clauses));
        ("vars", Obs.Int pcnf.Pcnf.num_vars);
      ]
  @@ fun () ->
  match Inproc.run ~config:(Inproc.config_of_mode config.inproc) (problem_of_pcnf pcnf) with
  | Inproc.Unsat as outcome ->
      Option.iter (fun k -> k outcome) on_inproc;
      Unsat
  | Inproc.Simplified res as outcome ->
      Option.iter (fun k -> replay_steps k res.Inproc.steps) trail;
      Option.iter (fun k -> k outcome) on_inproc;
      let st =
        {
          trail;
          univs = res.Inproc.univs;
          deps = Hashtbl.create 64;
          clauses = res.Inproc.clauses;
        }
      in
      List.iter (fun (y, d) -> Hashtbl.replace st.deps y d) res.Inproc.deps;
      let gates = if config.gate_detection then detect_gates st else [] in
      let f = build_formula ?node_limit st gates in
      let n = List.length gates in
      Obs.Metrics.incr ~by:n c_gates;
      Obs.Span.event "preprocess.done" ~attrs:[ ("gates", Obs.Int n) ] ();
      Formula (f, { gates = n })
