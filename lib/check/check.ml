open Hqs_util
module M = Aig.Man
module I = Aig.Man.Internal
module F = Dqbf.Formula

type level = Off | Cheap | Full

type stage =
  | Post_analysis
  | Post_inproc
  | Post_preprocess
  | Post_unitpure
  | Post_elimination
  | Post_compact
  | Post_linearize
  | Post_solve
  | Post_certify

let stage_name = function
  | Post_analysis -> "post-analysis"
  | Post_inproc -> "post-inproc"
  | Post_preprocess -> "post-preprocess"
  | Post_unitpure -> "post-unitpure"
  | Post_elimination -> "post-elimination"
  | Post_compact -> "post-compact"
  | Post_linearize -> "post-linearize"
  | Post_solve -> "post-solve"
  | Post_certify -> "post-certify"

let level_name = function Off -> "off" | Cheap -> "cheap" | Full -> "full"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "none" | "0" -> Some Off
  | "cheap" | "1" -> Some Cheap
  | "full" | "2" -> Some Full
  | _ -> None

type violation = { stage : stage; structure : string; detail : string }

exception Violation of violation

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s: %s" (stage_name v.stage) v.structure v.detail

let violation stage structure fmt =
  Format.kasprintf (fun detail -> raise (Violation { stage; structure; detail })) fmt

(* ------------------------------------------------------------ AIG manager *)

(* Deep audit of the manager representation. All of these are "impossible"
   states for the public construction API; each one has produced a wrong
   verdict in some AIG package at some point, which is why they are checked
   rather than assumed:
   - node 0 is the constant; every other node is an input or an AND;
   - AND fanins reference strictly earlier, non-constant nodes (topological
     acyclicity and no dangling references past [num_nodes]) and are stored
     in normalized order;
   - the structural-hash table is a bijection between fanin pairs and AND
     nodes (every AND reachable through its own key, no poisoned entries),
     so hash-consing cannot silently alias two different functions;
   - the input registry and input nodes label each other consistently. *)
let audit_man ~stage man =
  let fail fmt = violation stage "aig-manager" fmt in
  let n = M.num_nodes man in
  if n < 1 then fail "manager lost its constant node";
  if I.raw_fanin0 man 0 <> -2 || I.raw_fanin1 man 0 <> -2 then
    fail "node 0 is not marked as the constant node (fanins %d,%d)" (I.raw_fanin0 man 0)
      (I.raw_fanin1 man 0);
  let inputs = ref 0 in
  let ands = ref 0 in
  for i = 1 to n - 1 do
    let f0 = I.raw_fanin0 man i and f1 = I.raw_fanin1 man i in
    if f0 = -1 then begin
      (* input node *)
      incr inputs;
      if f1 < 0 then fail "input node %d carries negative variable label %d" i f1;
      let registered = I.input_node_of_var man f1 in
      if registered <> i then
        fail "input-label bijectivity broken: node %d is labelled %d but the registry maps %d to node %d"
          i f1 f1 registered
    end
    else if f0 >= 0 then begin
      (* AND node *)
      incr ands;
      if f1 < 0 then fail "AND node %d has negative fanin1 %d" i f1;
      let n0 = M.node_of f0 and n1 = M.node_of f1 in
      if n0 >= i || n1 >= i then
        fail "AND node %d has forward or dangling fanin (%d,%d): topological order broken" i f0 f1;
      if n0 = 0 || n1 = 0 then fail "AND node %d has a constant fanin (%d,%d)" i f0 f1;
      if f0 >= f1 then fail "AND node %d has unnormalized fanin order (%d,%d)" i f0 f1;
      (match I.strash_find man f0 f1 with
      | Some node when node = i -> ()
      | Some node ->
          fail "structural hash maps fanins (%d,%d) of AND node %d to node %d" f0 f1 i node
      | None -> fail "AND node %d is unreachable through its own structural-hash key (%d,%d)" i f0 f1)
    end
    else if f0 = -2 then fail "node %d is marked constant but only node 0 may be" i
    else fail "node %d has invalid fanin0 slot %d" i f0
  done;
  if !inputs <> M.num_inputs man then
    fail "input count drifted: registry says %d, %d input nodes found" (M.num_inputs man) !inputs;
  if I.strash_size man < !ands then
    fail "structural hash holds %d entries for %d AND nodes" (I.strash_size man) !ands;
  (* reverse direction: every hash binding (including shadowed duplicates)
     must describe the AND node it points to *)
  I.strash_iter man (fun a b node ->
      if node <= 0 || node >= n then
        fail "structural-hash entry (%d,%d) -> %d points outside the node table" a b node;
      let f0 = I.raw_fanin0 man node and f1 = I.raw_fanin1 man node in
      if f0 <> a || f1 <> b then
        fail "poisoned structural-hash entry: (%d,%d) -> node %d whose fanins are (%d,%d)" a b node
          f0 f1);
  (* registry -> node direction of the input bijection *)
  for v = 0 to I.input_vars_size man - 1 do
    let node = I.input_node_of_var man v in
    if node >= 0 then begin
      if node >= n then fail "input registry maps variable %d to out-of-range node %d" v node;
      if I.raw_fanin0 man node <> -1 || I.raw_fanin1 man node <> v then
        fail "input registry maps variable %d to node %d, which is not its input node" v node
    end
  done

let audit_lit ~stage ~structure man lit =
  if lit < 0 || M.node_of lit >= M.num_nodes man then
    violation stage structure "literal %d is dangling (manager has %d nodes)" lit (M.num_nodes man)

(* ------------------------------------------------------------ DQBF formula *)

let quantified_set f =
  List.fold_left (fun acc (y, _) -> Bitset.add y acc) (F.universals f) (F.existentials f)

(* Dependency semantics: the prefix is the part of the state with no
   redundancy to cross-check against, so corruption here (a widened
   dependency set, a variable quantified twice) flips verdicts silently.
   [Cheap] scans the prefix; [Full] additionally audits the manager deep
   and checks the matrix support against the quantified variables. *)
let audit_formula ~stage ~level f =
  let fail fmt = violation stage "dqbf-formula" fmt in
  let man = F.man f in
  let univs = F.universals f in
  audit_lit ~stage ~structure:"dqbf-formula" man (F.matrix f);
  let bound = F.next_var f in
  Bitset.iter (fun x -> if x >= bound then fail "universal %d above next_var=%d" x bound) univs;
  List.iter
    (fun (y, d) ->
      if y >= bound then fail "existential %d above next_var=%d" y bound;
      if Bitset.mem y univs then fail "variable %d is quantified both ways" y;
      match Bitset.choose (Bitset.diff d univs) with
      | Some x ->
          fail "dependency set of existential %d contains %d, which is not a universal (dependency widening)"
            y x
      | None -> ())
    (F.existentials f);
  if level = Full then begin
    audit_man ~stage man;
    let quantified = quantified_set f in
    Bitset.iter
      (fun v ->
        if not (Bitset.mem v quantified) then
          fail "matrix depends on variable %d, which is not quantified" v)
      (M.support man (F.matrix f))
  end

let audit_queue ~stage f queue =
  let fail fmt = violation stage "elimination-queue" fmt in
  let bound = F.next_var f in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun x ->
      if x < 0 || x >= bound then fail "queued variable %d out of range [0,%d)" x bound;
      if F.is_universal f x then begin
        if Hashtbl.mem seen x then fail "universal %d queued twice" x;
        Hashtbl.add seen x ()
      end)
    queue

(* ----------------------------------------------------------- Skolem model *)

(* Certify a SAT verdict: the reconstructed Skolem functions (the replay of
   every Model_trail substitution) must respect the declared dependency
   sets and turn the original matrix into a tautology, established by an
   independent SAT call ([Dqbf.Skolem.verify]). *)
let audit_model ?budget ~stage f model =
  match Dqbf.Skolem.verify ?budget f model with
  | Ok () -> ()
  | Error e -> violation stage "skolem-model" "%a" Dqbf.Skolem.pp_failure e

(* ------------------------------------------------- dependency-scheme gate *)

(* Validate the static dependency-scheme refinement (lib/analysis) against
   the *semantics*, not the analyzer's own reasoning: dropping a single
   pruned edge from the declared prefix must leave the reference-expansion
   verdict unchanged. The reference solver grounds every universal
   assignment, so the semantic pass only runs on instances small enough
   for that to be cheap; the structural pass (every reported edge really
   was declared) always runs. *)

let sem_max_universals = 8
let sem_max_vars = 48
let sem_max_clauses = 256

(* deterministic evenly-spread sample: first, middle, last, ... *)
let sample_edges k edges =
  let n = List.length edges in
  if n <= k then edges
  else
    List.filteri
      (fun i _ -> i * k / n < ((i + 1) * k / n) || i = 0)
      edges

let c_audits = Obs.Metrics.counter "check.audits"

let audit_dep_pruning ?budget ?(samples = 3) ~level (pcnf : Dqbf.Pcnf.t) ~pruned =
  match level with
  | Off -> ()
  | (Cheap | Full) when pruned = [] -> ()
  | Cheap | Full -> (
      let stage = Post_analysis in
      Obs.Metrics.incr c_audits;
      Obs.Span.with_ "check.audit"
        ~attrs:[ ("stage", Obs.Str (stage_name stage)); ("level", Obs.Str (level_name level)) ]
      @@ fun () ->
      let univs = Bitset.of_list pcnf.Dqbf.Pcnf.univs in
      let declared = Hashtbl.create 16 in
      List.iter (fun (y, deps) -> Hashtbl.replace declared y deps) pcnf.Dqbf.Pcnf.exists;
      List.iter
        (fun (x, y) ->
          if not (Bitset.mem x univs) then
            violation stage "dep-scheme" "pruned edge (%d,%d): %d is not universal" x y x;
          match Hashtbl.find_opt declared y with
          | None ->
              violation stage "dep-scheme" "pruned edge (%d,%d): %d is not a declared existential"
                x y y
          | Some deps ->
              if not (List.exists (fun d -> d = x) deps) then
                violation stage "dep-scheme" "pruned edge (%d,%d) was never declared" x y)
        pruned;
      let small =
        List.length pcnf.Dqbf.Pcnf.univs <= sem_max_universals
        && pcnf.Dqbf.Pcnf.num_vars <= sem_max_vars
        && List.length pcnf.Dqbf.Pcnf.clauses <= sem_max_clauses
      in
      if level = Full && small then
        (* the semantic pass is advisory on its budget: a reference solver
           timeout must not convert a healthy solve into an abort, so it
           runs under a sub-deadline and a timeout just ends the sampling *)
        let budget = Option.map (fun b -> Budget.sub ~frac:0.25 b) budget in
        try
          let baseline =
            lazy (Dqbf.Reference.by_expansion ?budget (Dqbf.Pcnf.to_formula pcnf))
          in
          List.iter
            (fun (x, y) ->
              let dropped =
                {
                  pcnf with
                  Dqbf.Pcnf.exists =
                    List.map
                      (fun (z, deps) ->
                        if z = y then (z, List.filter (fun d -> d <> x) deps) else (z, deps))
                      pcnf.Dqbf.Pcnf.exists;
                }
              in
              let verdict =
                Dqbf.Reference.by_expansion ?budget (Dqbf.Pcnf.to_formula dropped)
              in
              if verdict <> Lazy.force baseline then
                violation stage "dep-scheme"
                  "pruned edge (%d,%d) is semantically load-bearing: dropping it flips the \
                   reference verdict from %b to %b"
                  x y (Lazy.force baseline) verdict)
            (sample_edges samples pruned)
        with Budget.Timeout -> ())

(* ---------------------------------------------------- inprocessing gate *)

(* Validate an inprocessing run from its step witnesses. The structural
   pass replays each witness against the *declared* prefix, exploiting
   that dependency sets only ever shrink during the run (intersection on
   merges), so any runtime membership fact implies the declared one:
   - propagated units and merged variables must be declared existential;
   - a merge against a universal requires that universal in the declared
     dependency set of the merged existential;
   - universal reduction only drops declared universals;
   - subsumption witnesses must really be sub-clauses, strengthening
     witnesses must really be self-subsuming resolution partners;
   - every gate's output is a surviving existential, every input is
     dependency-below it in the surviving prefix, no output is defined
     twice or read before its definition, and its defining clauses
     contain the Tseitin encoding of its function.
   At [Full] on reference-sized instances the whole run is certified
   semantically: the expansion verdict of the simplified formula, the
   gates' defining clauses included (or falsity, for a refutation), must
   match the original. *)

module L = Sat.Lit

let audit_inproc ?budget ~level (pcnf : Dqbf.Pcnf.t) (outcome : Inproc.outcome) =
  match level with
  | Off -> ()
  | Cheap | Full -> (
      let stage = Post_inproc in
      Obs.Metrics.incr c_audits;
      Obs.Span.with_ "check.audit"
        ~attrs:[ ("stage", Obs.Str (stage_name stage)); ("level", Obs.Str (level_name level)) ]
      @@ fun () ->
      let fail fmt = violation stage "inproc" fmt in
      let univs = Bitset.of_list pcnf.Dqbf.Pcnf.univs in
      let declared = Hashtbl.create 16 in
      List.iter
        (fun (y, deps) -> Hashtbl.replace declared y (Bitset.of_list deps))
        pcnf.Dqbf.Pcnf.exists;
      (* variables never declared are existential with no dependencies *)
      let is_exist v = Hashtbl.mem declared v || not (Bitset.mem v univs) in
      let declared_deps v =
        match Hashtbl.find_opt declared v with Some d -> d | None -> Bitset.empty
      in
      let subset_clause a b = List.for_all (fun l -> List.mem l b) a in
      (match outcome with
      | Inproc.Unsat -> ()
      | Inproc.Simplified res ->
          List.iter
            (fun step ->
              match step with
              | Inproc.Unit l ->
                  if Bitset.mem (L.var l) univs then
                    fail "unit %d propagated over universal variable %d (should refute)"
                      (L.to_dimacs l) (L.var l)
              | Inproc.Reduced { clause; dropped } ->
                  List.iter
                    (fun l ->
                      if not (Bitset.mem (L.var l) univs) then
                        fail "universal reduction dropped %d from a clause, but %d is not universal"
                          (L.to_dimacs l) (L.var l))
                    dropped;
                  if dropped = [] then fail "empty universal-reduction witness on a %d-literal clause"
                      (List.length clause)
              | Inproc.Merged { y; rep } ->
                  if not (is_exist y) then fail "merged variable %d is not existential" y;
                  if Bitset.mem y univs then fail "merged variable %d is universal" y;
                  let rv = L.var rep in
                  if rv = y then fail "variable %d merged into itself" y;
                  if Bitset.mem rv univs && not (Bitset.mem rv (declared_deps y)) then
                    fail
                      "existential %d merged with universal %d outside its declared dependency \
                       set (should refute)"
                      y rv
              | Inproc.Subsumed { clause; by } ->
                  if not (subset_clause by clause) then
                    fail "subsumption witness is not a sub-clause (|by|=%d, |clause|=%d)"
                      (List.length by) (List.length clause)
              | Inproc.Strengthened { clause; removed; by } ->
                  if not (List.mem removed clause) then
                    fail "strengthening removed literal %d that is not in the clause"
                      (L.to_dimacs removed);
                  if not (List.mem (L.neg removed) by) then
                    fail "strengthening witness does not contain the complement of %d"
                      (L.to_dimacs removed);
                  let by_rest = List.filter (fun l -> l <> L.neg removed) by in
                  let clause_rest = List.filter (fun l -> l <> removed) clause in
                  if not (subset_clause by_rest clause_rest) then
                    fail "strengthening witness is not a self-subsuming resolution partner on %d"
                      (L.to_dimacs removed))
            res.Inproc.steps;
          (* surviving prefix sanity: no widening, no new variables *)
          List.iter
            (fun (y, d) ->
              if Bitset.mem y univs then fail "surviving existential %d is declared universal" y;
              match Bitset.choose (Bitset.diff d (declared_deps y)) with
              | Some x -> fail "surviving existential %d gained dependency %d" y x
              | None -> ())
            res.Inproc.deps;
          (* gates, against the surviving prefix *)
          let surviving = Hashtbl.create 64 in
          List.iter (fun (y, d) -> Hashtbl.replace surviving y d) res.Inproc.deps;
          let outputs = Hashtbl.create 16 in
          List.iter
            (fun (g : Inproc.gate) -> Hashtbl.replace outputs g.Inproc.out_var ())
            res.Inproc.gates;
          let defined = Hashtbl.create 16 in
          List.iter
            (fun (g : Inproc.gate) ->
              let y = g.Inproc.out_var in
              let d_y =
                match Hashtbl.find_opt surviving y with
                | Some d -> d
                | None -> fail "gate output %d is not a surviving existential" y
              in
              let a, b =
                match g.Inproc.fn with Inproc.G_and (a, b) | Inproc.G_xor (a, b) -> (a, b)
              in
              List.iter
                (fun l ->
                  let v = L.var l in
                  let below =
                    if Bitset.mem v univs then Bitset.mem v d_y
                    else
                      match Hashtbl.find_opt surviving v with
                      | Some d_v -> v <> y && Bitset.subset d_v d_y
                      | None -> false
                  in
                  if not below then
                    fail "gate input %d is not dependency-below its output %d" v y;
                  if Hashtbl.mem outputs v && not (Hashtbl.mem defined v) then
                    fail "gate %d reads gate output %d before its definition" y v)
                [ a; b ];
              if Hashtbl.mem defined y then fail "gate output %d is defined twice" y;
              Hashtbl.replace defined y ();
              (* the Tseitin clauses of out = fn, out complemented when out_neg *)
              let o = L.mk y ~neg:g.Inproc.out_neg in
              let encoding =
                match g.Inproc.fn with
                | Inproc.G_and _ -> [ [ L.neg o; a ]; [ L.neg o; b ]; [ o; L.neg a; L.neg b ] ]
                | Inproc.G_xor _ ->
                    [
                      [ L.neg o; a; b ];
                      [ L.neg o; L.neg a; L.neg b ];
                      [ o; L.neg a; b ];
                      [ o; a; L.neg b ];
                    ]
              in
              (* the defining clauses are exactly the encoding: the
                 formula is built without them, so an extra one would
                 be lost unchecked *)
              let sorted = List.sort_uniq Int.compare in
              let defs = List.map sorted g.Inproc.def_clauses in
              let encoding = List.map sorted encoding in
              let among cs c = List.exists (List.equal Int.equal c) cs in
              List.iter
                (fun c ->
                  if not (among defs c) then
                    fail "gate %d lacks a defining clause of its function" y)
                encoding;
              List.iter
                (fun c ->
                  if not (among encoding c) then
                    fail "gate %d has a defining clause outside its function" y)
                defs)
            res.Inproc.gates);
      let small =
        List.length pcnf.Dqbf.Pcnf.univs <= sem_max_universals
        && pcnf.Dqbf.Pcnf.num_vars <= sem_max_vars
        && List.length pcnf.Dqbf.Pcnf.clauses <= sem_max_clauses
      in
      if level = Full && small then
        (* advisory on its budget, like the dep-pruning gate *)
        let budget = Option.map (fun b -> Budget.sub ~frac:0.25 b) budget in
        try
          let baseline = Dqbf.Reference.by_expansion ?budget (Dqbf.Pcnf.to_formula pcnf) in
          match outcome with
          | Inproc.Unsat ->
              if baseline then
                fail "inprocessing refuted a formula whose reference verdict is SAT"
          | Inproc.Simplified res ->
              let simplified =
                {
                  pcnf with
                  Dqbf.Pcnf.univs = Bitset.to_list res.Inproc.univs;
                  exists = List.map (fun (y, d) -> (y, Bitset.to_list d)) res.Inproc.deps;
                  clauses =
                    List.map (List.map L.to_dimacs)
                      (res.Inproc.clauses
                      @ List.concat_map
                          (fun (g : Inproc.gate) -> g.Inproc.def_clauses)
                          res.Inproc.gates);
                }
              in
              let verdict =
                Dqbf.Reference.by_expansion ?budget (Dqbf.Pcnf.to_formula simplified)
              in
              if verdict <> baseline then
                fail
                  "inprocessing is not verdict-preserving: reference says %b before, %b after"
                  baseline verdict
        with Budget.Timeout -> ())

(* ---------------------------------------------------------------- driver *)

let audit_stage ~level ?queue stage f =
  match level with
  | Off -> ()
  | Cheap | Full ->
      Obs.Metrics.incr c_audits;
      Obs.Span.with_ "check.audit"
        ~attrs:[ ("stage", Obs.Str (stage_name stage)); ("level", Obs.Str (level_name level)) ]
      @@ fun () ->
      audit_formula ~stage ~level f;
      (match queue with Some q -> audit_queue ~stage f q | None -> ())

(* ----------------------------------------------------------- verdict cache *)

let audit_cache_hit ~level ~key ~cached_sat ~fresh_sat =
  match level with
  | Off -> ()
  | Cheap | Full ->
      Obs.Metrics.incr c_audits;
      if cached_sat <> fresh_sat then
        violation Post_solve "verdict-cache"
          "memoized verdict for canonical key %s is %s but a fresh solve says %s" key
          (if cached_sat then "SAT" else "UNSAT")
          (if fresh_sat then "SAT" else "UNSAT")

(* ------------------------------------------------------- certificate gate *)

(* Gate an emitted solve certificate before it leaves the process. The
   structural half (fingerprint, prefix agreement, declared-dependency
   support) runs at any enabled level; [Full] re-verifies the semantic
   claim with the library checker — substituted matrix a tautology for
   SAT, expansion refuted for UNSAT — under the caller's budget (a
   budget expiry abandons the semantic pass, it does not fail it). An
   [Uncertified] artifact passes unless it marks the verdict itself as
   inconsistent ({!Cert.is_inconsistent}): an honest capacity gap is
   fine, a full expansion disagreeing with the verdict is not. *)
let audit_certificate ?budget ~level ~instance_text (pcnf : Dqbf.Pcnf.t) cert =
  match level with
  | Off -> ()
  | Cheap | Full -> (
      let stage = Post_certify in
      Obs.Metrics.incr c_audits;
      Obs.Span.with_ "check.audit"
        ~attrs:[ ("stage", Obs.Str (stage_name stage)); ("level", Obs.Str (level_name level)) ]
      @@ fun () ->
      (match Cert.check_structural ~instance_text pcnf cert with
      | Ok () -> ()
      | Error detail -> violation stage "certificate" "%s" detail);
      if Cert.is_inconsistent cert then
        violation stage "certificate" "uncertified artifact marks the verdict as inconsistent";
      match level with
      | Full -> (
          try
            match Cert.check ?budget ~instance_text pcnf cert with
            | Ok () -> ()
            | Error detail -> violation stage "certificate" "%s" detail
          with Budget.Timeout -> ())
      | Off | Cheap -> ())
