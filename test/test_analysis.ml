(* Static dependency-scheme analyzer (lib/analysis): hand-built cases for
   the resolution-path semantics, QCheck properties tying the refinement
   to the declared prefix, and end-to-end agreement with the trivial
   scheme through the full solver. *)

open Hqs_util
module Pcnf = Dqbf.Pcnf
module Rp = Analysis.Rp
module Scheme = Analysis.Scheme

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pcnf ~num_vars ~univs ~exists ~clauses = { Pcnf.num_vars; univs; exists; clauses }

let analyze scheme p =
  match Pcnf.validate p with
  | Error m -> Alcotest.failf "bad fixture: %s" m
  | Ok () -> Rp.analyze ~scheme p

(* ------------------------------------------------------------ unit cases *)

(* x never appears in the matrix: dep(y) = {x} is spurious *)
let test_disconnected_pruned () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 2 ]; [ -2 ] ]
  in
  let refined, r = analyze Scheme.Rp p in
  check_int "edge pruned" 1 (List.length r.Rp.pruned);
  check "the x->y edge" true (r.Rp.pruned = [ (0, 1) ]);
  check "refined prefix dropped it" true (List.assoc 1 refined.Pcnf.exists = []);
  check "clauses untouched" true (refined.Pcnf.clauses = p.Pcnf.clauses)

(* y <-> x: both polarity paths exist, the edge is load-bearing *)
let test_connected_kept () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ]
      ~clauses:[ [ 1; -2 ]; [ -1; 2 ] ]
  in
  let refined, r = analyze Scheme.Rp p in
  check_int "nothing pruned" 0 (List.length r.Rp.pruned);
  check "dep kept" true (List.assoc 1 refined.Pcnf.exists = [ 0 ])

(* x appears only positively: x ~> y but no path leaves ~x, so no
   polarity-consistent pair exists and the edge goes *)
let test_single_polarity_pruned () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 1; 2 ]; [ 1; -2 ] ]
  in
  let _, r = analyze Scheme.Rp p in
  check "pruned" true (r.Rp.pruned = [ (0, 1) ])

(* the path x -> y runs through z; z is a connecting variable only if z
   depends on x *)
let test_connecting_variable () =
  let clauses = [ [ 1; 3 ]; [ -3; 2 ]; [ -1; -3 ]; [ 3; -2 ] ] in
  (* z (var 2) depends on x: paths connect in both polarities, edge kept *)
  let p_dep =
    pcnf ~num_vars:3 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]); (2, [ 0 ]) ] ~clauses
  in
  let _, r_dep = analyze Scheme.Rp p_dep in
  check "kept through a depending connector" true
    (not (List.mem (0, 1) r_dep.Rp.pruned));
  (* z independent of x: z cannot connect, and x/y never share a clause *)
  let p_indep =
    pcnf ~num_vars:3 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]); (2, []) ] ~clauses
  in
  let _, r_indep = analyze Scheme.Rp p_indep in
  check "pruned past an independent connector" true (List.mem (0, 1) r_indep.Rp.pruned)

let test_trivial_identity () =
  let p =
    pcnf ~num_vars:2 ~univs:[ 0 ] ~exists:[ (1, [ 0 ]) ] ~clauses:[ [ 2 ]; [ -2 ] ]
  in
  let refined, r = analyze Scheme.Trivial p in
  check "prefix unchanged" true (refined = p);
  check_int "no pruning" 0 (List.length r.Rp.pruned);
  check_int "edge counts agree" r.Rp.edges_before r.Rp.edges_after;
  check "not linearized" false r.Rp.linearized

(* incomparable declared sets {x1} / {x2}, but y2's dependency is
   spurious: pruning it makes the refined sets pairwise comparable *)
let test_linearized () =
  let p =
    pcnf ~num_vars:4 ~univs:[ 0; 1 ]
      ~exists:[ (2, [ 0 ]); (3, [ 1 ]) ]
      ~clauses:[ [ 1; -3 ]; [ -1; 3 ]; [ 4 ] ]
  in
  let refined, r = analyze Scheme.Rp p in
  check "y1 keeps x1" true (List.assoc 2 refined.Pcnf.exists = [ 0 ]);
  check "y2 loses x2" true (List.assoc 3 refined.Pcnf.exists = []);
  check "the pruned edge" true (r.Rp.pruned = [ (1, 3) ]);
  check_int "incomparable before" 1 r.Rp.incomparable_before;
  check_int "incomparable after" 0 r.Rp.incomparable_after;
  check "linearized" true r.Rp.linearized

(* ------------------------------------------------------------ properties *)

(* random PCNFs, mirroring test_dqbf's instance space at the clause level *)
type instance = {
  nu : int;
  ne : int;
  dep_masks : int list;
  clauses : (int * bool) list list;
}

let instance_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun nu ->
    int_range 1 3 >>= fun ne ->
    list_repeat ne (int_bound ((1 lsl nu) - 1)) >>= fun dep_masks ->
    let n = nu + ne in
    list_size (int_range 1 12) (list_size (int_range 1 3) (pair (int_bound (n - 1)) bool))
    >>= fun clauses -> return { nu; ne; dep_masks; clauses })

let instance_print { nu; ne; dep_masks; clauses } =
  Printf.sprintf "nu=%d ne=%d deps=[%s] clauses=%s" nu ne
    (String.concat ";" (List.map string_of_int dep_masks))
    (String.concat " "
       (List.map
          (fun c ->
            String.concat ","
              (List.map (fun (v, s) -> string_of_int (if s then -(v + 1) else v + 1)) c))
          clauses))

let instance_arb = QCheck.make ~print:instance_print instance_gen

let to_pcnf { nu; ne; dep_masks; clauses } =
  pcnf ~num_vars:(nu + ne)
    ~univs:(List.init nu Fun.id)
    ~exists:
      (List.mapi
         (fun i mask ->
           (nu + i, List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init nu Fun.id)))
         dep_masks)
    ~clauses:
      (List.map (List.map (fun (v, s) -> if s then -(v + 1) else v + 1)) clauses)

let subset a b = List.for_all (fun x -> List.mem x b) a

let prop_refinement_shrinks =
  QCheck.Test.make ~count:300 ~name:"rp only removes dependency edges" instance_arb
    (fun inst ->
      let p = to_pcnf inst in
      let refined, r = Rp.analyze ~scheme:Scheme.Rp p in
      List.for_all2
        (fun (v, before) (v', after) -> v = v' && subset after before)
        p.Pcnf.exists refined.Pcnf.exists
      && refined.Pcnf.clauses = p.Pcnf.clauses
      && refined.Pcnf.univs = p.Pcnf.univs
      && r.Rp.edges_after = r.Rp.edges_before - List.length r.Rp.pruned
      && r.Rp.edges_after <= r.Rp.edges_before)

let prop_trivial_fixpoint =
  QCheck.Test.make ~count:100 ~name:"trivial scheme is the identity" instance_arb
    (fun inst ->
      let p = to_pcnf inst in
      let refined, r = Rp.analyze ~scheme:Scheme.Trivial p in
      refined = p && r.Rp.pruned = [] && r.Rp.edges_before = r.Rp.edges_after)

let prop_rp_preserves_truth =
  QCheck.Test.make ~count:120 ~name:"rp refinement preserves satisfiability"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let refined, _ = Rp.analyze ~scheme:Scheme.Rp p in
      Dqbf.Reference.by_expansion (Pcnf.to_formula p)
      = Dqbf.Reference.by_expansion (Pcnf.to_formula refined))

(* Differential reference for the exact Rp output: a naive search over
   (clause, entry variable) states — no two-visit state machine — that
   applies the polarity-consistent rule to every declared edge, plus a
   plain pairwise incomparable count over dependency lists. *)
let reference_reached ~clauses ~connecting start =
  let reached = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  let rec enter c via =
    if not (Hashtbl.mem seen (c, via)) then begin
      Hashtbl.add seen (c, via) ();
      List.iter
        (fun l ->
          let v = abs l - 1 in
          if v <> via then begin
            Hashtbl.replace reached l ();
            if connecting v then
              Array.iteri (fun d cl -> if List.mem (-l) cl then enter d v) clauses
          end)
        clauses.(c)
    end
  in
  Array.iteri (fun c cl -> if List.mem start cl then enter c (abs start - 1)) clauses;
  Hashtbl.mem reached

let reference_incomparable sets =
  let rec pairs = function
    | [] -> 0
    | a :: rest ->
        List.length (List.filter (fun b -> not (subset a b || subset b a)) rest) + pairs rest
  in
  pairs sets

let reference_analysis (p : Pcnf.t) =
  let clauses = Array.of_list p.Pcnf.clauses in
  let keeps x y =
    let connecting v =
      match List.assoc_opt v p.Pcnf.exists with Some deps -> List.mem x deps | None -> false
    in
    let pos = reference_reached ~clauses ~connecting (x + 1)
    and neg = reference_reached ~clauses ~connecting (-(x + 1)) in
    (pos (y + 1) && neg (-(y + 1))) || (pos (-(y + 1)) && neg (y + 1))
  in
  let refinements =
    List.map
      (fun (y, deps) -> { Rp.var = y; before = deps; after = List.filter (fun x -> keeps x y) deps })
      p.Pcnf.exists
  in
  let pruned =
    List.concat_map
      (fun r -> List.filter_map (fun x -> if List.mem x r.Rp.after then None else Some (x, r.Rp.var)) r.Rp.before)
      refinements
  in
  let before = reference_incomparable (List.map (fun r -> r.Rp.before) refinements)
  and after = reference_incomparable (List.map (fun r -> r.Rp.after) refinements) in
  (refinements, pruned, before, after)

(* larger than [instance_gen], so that paths through connecting variables
   (and hence both kept and pruned edges) are common *)
let wide_instance_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun nu ->
    int_range 1 6 >>= fun ne ->
    list_repeat ne (int_bound ((1 lsl nu) - 1)) >>= fun dep_masks ->
    let n = nu + ne in
    list_size (int_range 1 20) (list_size (int_range 1 4) (pair (int_bound (n - 1)) bool))
    >>= fun clauses -> return { nu; ne; dep_masks; clauses })

let prop_rp_matches_reference =
  QCheck.Test.make ~count:500 ~name:"rp output equals the naive state-space reference"
    (QCheck.make ~print:instance_print wide_instance_gen) (fun inst ->
      let p = to_pcnf inst in
      let refined, r = Rp.analyze ~scheme:Scheme.Rp p in
      let refinements, pruned, before, after = reference_analysis p in
      r.Rp.pruned = pruned
      && r.Rp.refinements = refinements
      && r.Rp.incomparable_before = before
      && r.Rp.incomparable_after = after
      && r.Rp.linearized = (after = 0 && before > 0)
      && refined.Pcnf.exists = List.map (fun r -> (r.Rp.var, r.Rp.after)) refinements)

(* end-to-end: the full solver under either scheme and a Full auditor
   agrees, and rp never enlarges the MaxSAT elimination set *)
let prop_solver_agreement =
  QCheck.Test.make ~count:60 ~name:"solver verdicts agree across schemes"
    instance_arb (fun inst ->
      let p = to_pcnf inst in
      let solve scheme =
        Hqs.solve_pcnf
          ~config:
            {
              Hqs.default_config with
              Hqs.dep_scheme = scheme;
              check_level = Check.Full;
            }
          ~budget:(Budget.of_seconds 10.0)
          p
      in
      let v_triv, s_triv = solve Scheme.Trivial in
      let v_rp, s_rp = solve Scheme.Rp in
      let maxsat_set s = Hqs.metric s "hqs.maxsat_set" in
      v_triv = v_rp && maxsat_set s_rp <= maxsat_set s_triv)

let () =
  Alcotest.run "analysis"
    [
      ( "rp",
        [
          Alcotest.test_case "disconnected pruned" `Quick test_disconnected_pruned;
          Alcotest.test_case "connected kept" `Quick test_connected_kept;
          Alcotest.test_case "single polarity pruned" `Quick test_single_polarity_pruned;
          Alcotest.test_case "connecting variable" `Quick test_connecting_variable;
          Alcotest.test_case "trivial identity" `Quick test_trivial_identity;
          Alcotest.test_case "linearized" `Quick test_linearized;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_refinement_shrinks;
            prop_trivial_fixpoint;
            prop_rp_preserves_truth;
            prop_rp_matches_reference;
            prop_solver_agreement;
          ] );
    ]
