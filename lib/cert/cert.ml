(* Solve certificates: a self-contained text artifact a third party can
   re-check without trusting any solver code. SAT answers carry the
   Skolem functions as a closed AIG over the universals (Definition 2
   turns verification into one SAT call: substitute and refute the
   negation); UNSAT answers carry the full universal expansion whose
   propositional core is unsatisfiable. Anything we cannot re-derive
   under budget is marked UNCERTIFIED with the reason — never silently
   dropped. The grammar is kept small enough for [bin/certcheck] to
   re-parse with zero library code; both sides of every encoding choice
   (1-based variables, lit = 2*node + complement, node 0 = false,
   topological node numbering) live in DESIGN.md §15. *)

open Hqs_util
module M = Aig.Man
module Sk = Dqbf.Skolem
module Pcnf = Dqbf.Pcnf
module IntSet = Set.Make (Int)

type aig = {
  num_nodes : int;
  inputs : (int * int) list;
  gates : (int * int * int) list;
  outputs : (int * int) list;
}

type body = Sat_cert of aig | Unsat_cert of int list list | Uncertified of string

type t = {
  fingerprint : string;
  univs : int list;
  deps : (int * int list) list;
  body : body;
}

let c_emitted = Obs.Metrics.counter "cert.emitted"
let c_uncertified = Obs.Metrics.counter "cert.uncertified"
let c_checked = Obs.Metrics.counter "cert.checked"

let fingerprint s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let status t =
  match t.body with
  | Sat_cert _ -> "SAT"
  | Unsat_cert _ -> "UNSAT"
  | Uncertified _ -> "UNCERTIFIED"

let inconsistent_reason = "expansion satisfiable"

let is_inconsistent t =
  match t.body with
  | Uncertified r -> String.starts_with ~prefix:inconsistent_reason r
  | Sat_cert _ | Unsat_cert _ -> false

(* The formula builder promotes every undeclared variable to an
   existential with empty dependencies (Pcnf.to_formula); the
   certificate header must list the same effective prefix or the two
   sides would disagree about which variables need Skolem functions. *)
let effective_exists (p : Pcnf.t) =
  let declared = Bitset.of_list (p.Pcnf.univs @ List.map fst p.Pcnf.exists) in
  let extra = ref [] in
  for v = p.Pcnf.num_vars - 1 downto 0 do
    if not (Bitset.mem v declared) then extra := (v, []) :: !extra
  done;
  p.Pcnf.exists @ !extra

let header_of_pcnf ~instance_text (p : Pcnf.t) =
  let univs = List.sort Int.compare (List.map (fun u -> u + 1) p.Pcnf.univs) in
  let deps =
    effective_exists p
    |> List.map (fun (y, ds) -> (y + 1, List.sort Int.compare (List.map (fun x -> x + 1) ds)))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (fingerprint instance_text, univs, deps)

(* ------------------------------------------------------- SAT emission *)

(* Close the Skolem model over the universals: a definition may mention
   another defined existential (the preprocessor's reconstruction trail
   does this); substitute those references through so the exported cones
   read only universal inputs. Cycles (which a sound trail never has)
   degrade to keeping the reference as a plain input — the checker then
   rejects the support honestly instead of us looping. *)
let close_model (p : Pcnf.t) model =
  let sman = Sk.man model in
  let cman = M.create () in
  let existential = Hashtbl.create 16 in
  List.iter (fun (y, _) -> Hashtbl.replace existential y ()) (effective_exists p);
  let closed : (int, M.lit) Hashtbl.t = Hashtbl.create 16 in
  let visiting : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec close_var y =
    match Hashtbl.find_opt closed y with
    | Some l -> Some l
    | None ->
        if Hashtbl.mem visiting y then None
        else
          match Sk.find model y with
          | None -> None
          | Some root ->
              Hashtbl.replace visiting y ();
              M.iter_cone sman [ root ] (fun n ->
                  if n <> 0 && M.is_input sman (2 * n) then begin
                    let v = M.var_of_input sman (2 * n) in
                    if Hashtbl.mem existential v then ignore (close_var v)
                  end);
              (* [closed] binds existentials only *)
              let leaf var =
                match Hashtbl.find_opt closed var with Some l -> l | None -> M.input cman var
              in
              let l =
                match M.rebuild sman [ root ] cman ~leaf with [ l ] -> l | _ -> assert false
              in
              Hashtbl.remove visiting y;
              Hashtbl.replace closed y l;
              Some l
  in
  let outs =
    List.map
      (fun (y, _) -> (y, match close_var y with Some l -> l | None -> M.false_))
      (effective_exists p)
  in
  (cman, outs)

let export cman outs =
  let node_id = Hashtbl.create 64 in
  Hashtbl.replace node_id 0 0;
  let next = ref 1 in
  let inputs = ref [] in
  let gates = ref [] in
  let tr e = (2 * Hashtbl.find node_id (M.node_of e)) + if M.is_compl e then 1 else 0 in
  M.iter_cone cman (List.map snd outs) (fun n ->
      if n <> 0 then begin
        let id = !next in
        incr next;
        Hashtbl.replace node_id n id;
        if M.is_input cman (2 * n) then inputs := (id, M.var_of_input cman (2 * n) + 1) :: !inputs
        else begin
          let e0, e1 = M.fanins cman (2 * n) in
          gates := (id, tr e0, tr e1) :: !gates
        end
      end);
  {
    num_nodes = !next;
    inputs = List.rev !inputs;
    gates = List.rev !gates;
    outputs = List.map (fun (y, l) -> (y + 1, tr l)) outs;
  }

let of_skolem ~instance_text p model =
  Obs.Span.with_ "cert.emit" (fun () ->
      let fp, univs, deps = header_of_pcnf ~instance_text p in
      let cman, outs = close_model p model in
      let aig = export cman outs in
      Obs.Metrics.incr c_emitted;
      { fingerprint = fp; univs; deps; body = Sat_cert aig })

(* ----------------------------------------------------- UNSAT emission *)

(* All 2^n assignments over the (0-based) universal list, each as a
   (variable, polarity) list in a fixed order. *)
let enumerate univs =
  let arr = Array.of_list univs in
  let n = Array.length arr in
  List.init (1 lsl n) (fun bits ->
      Array.to_list (Array.mapi (fun i v -> (v, bits land (1 lsl i) <> 0)) arr))

type refute_result = Refuted | Not_refuted

(* Propositional core of the expansion: for each universal assignment A,
   instantiate every clause (universal literals become constants) and
   rename each existential y to the copy keyed by (y, A restricted to
   dep(y)) — the same variable across assignments that agree on the
   Henkin set, which is exactly what makes the expansion equisatisfiable
   with the DQBF. Assignments must be total over the universals (the
   structural check guarantees it before we are called).
   Raises Budget.Timeout if the budget expires mid-refutation. *)
let refute_expansion ?budget (p : Pcnf.t) (assigns : (int * bool) list list) =
  let deps = Hashtbl.create 16 in
  List.iter
    (fun (y, ds) -> Hashtbl.replace deps y (List.sort Int.compare ds))
    (effective_exists p);
  let solver = Sat.Solver.create () in
  let next = ref 0 in
  let copies = Hashtbl.create 64 in
  let contradiction = ref false in
  List.iter
    (fun assign ->
      let env = Hashtbl.create 16 in
      List.iter (fun (v, b) -> Hashtbl.replace env v b) assign;
      let copy_of y =
        let ds = match Hashtbl.find_opt deps y with Some l -> l | None -> [] in
        let key =
          string_of_int y ^ ":"
          ^ String.concat ""
              (List.map
                 (fun x ->
                   match Hashtbl.find_opt env x with Some true -> "1" | Some false | None -> "0")
                 ds)
        in
        match Hashtbl.find_opt copies key with
        | Some v -> v
        | None ->
            let v = !next in
            incr next;
            Sat.Solver.ensure_var solver v;
            Hashtbl.replace copies key v;
            v
      in
      List.iter
        (fun clause ->
          let sat_clause = ref [] in
          let satisfied = ref false in
          List.iter
            (fun l ->
              let v = abs l - 1 in
              let neg = l < 0 in
              match Hashtbl.find_opt env v with
              | Some b -> if b <> neg then satisfied := true
              | None -> sat_clause := Sat.Lit.mk (copy_of v) ~neg :: !sat_clause)
            clause;
          if not !satisfied then
            match !sat_clause with
            | [] -> contradiction := true
            | c -> Sat.Solver.add_clause solver c)
        p.Pcnf.clauses)
    assigns;
  if !contradiction then Refuted
  else
    match Sat.Solver.solve ?budget solver with
    | Sat.Solver.Unsat -> Refuted
    | Sat.Solver.Sat -> Not_refuted

let of_unsat ?(budget = Budget.unlimited) ?(max_univs = 12) ~instance_text p =
  Obs.Span.with_ "cert.emit" (fun () ->
      let fp, univs, deps = header_of_pcnf ~instance_text p in
      let mk body = { fingerprint = fp; univs; deps; body } in
      let n = List.length p.Pcnf.univs in
      if n > max_univs then begin
        Obs.Metrics.incr c_uncertified;
        mk
          (Uncertified
             (Printf.sprintf "expansion too large: %d universals exceed the %d cap" n max_univs))
      end
      else
        let assigns = enumerate (List.sort Int.compare p.Pcnf.univs) in
        match refute_expansion ~budget:(Budget.sub ~frac:0.25 budget) p assigns with
        | Refuted ->
            Obs.Metrics.incr c_emitted;
            mk
              (Unsat_cert
                 (List.map
                    (fun a -> List.map (fun (v, b) -> if b then v + 1 else -(v + 1)) a)
                    assigns))
        | Not_refuted ->
            Obs.Metrics.incr c_uncertified;
            mk
              (Uncertified
                 (inconsistent_reason ^ " under full enumeration: the UNSAT verdict is suspect"))
        | exception Budget.Timeout ->
            Obs.Metrics.incr c_uncertified;
            mk (Uncertified "refutation budget exhausted"))

(* ---------------------------------------------------------- rendering *)

let render t =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let ints = function [] -> "" | l -> String.concat " " (List.map string_of_int l) ^ " " in
  line "c hqs certificate";
  line "s cert %s" (status t);
  line "h %s" t.fingerprint;
  line "a %s0" (ints t.univs);
  List.iter (fun (y, ds) -> line "d %d %s0" y (ints ds)) t.deps;
  (match t.body with
  | Sat_cert a ->
      line "n %d" a.num_nodes;
      let nodes =
        List.map (fun (nd, u) -> (nd, `I u)) a.inputs
        @ List.map (fun (nd, f0, f1) -> (nd, `G (f0, f1))) a.gates
        |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
      in
      List.iter
        (function
          | nd, `I u -> line "i %d %d" nd u
          | nd, `G (f0, f1) -> line "g %d %d %d" nd f0 f1)
        nodes;
      List.iter (fun (y, l) -> line "o %d %d" y l) a.outputs
  | Unsat_cert lines ->
      line "x %d" (List.length lines);
      List.iter (fun l -> line "u %s0" (ints l)) lines
  | Uncertified reason -> line "r %s" reason);
  Buffer.contents buf

let write_file path t =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (render t))

(* ----------------------------------------------------------- checking *)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Per-node universal support of the certificate AIG, by one pass in
   node order (gates only reference smaller ids: [export] numbers nodes
   in topological order). *)
let aig_supports aig =
  let sup = Array.make aig.num_nodes IntSet.empty in
  List.iter (fun (nd, u) -> sup.(nd) <- IntSet.singleton u) aig.inputs;
  List.iter
    (fun (nd, f0, f1) -> sup.(nd) <- IntSet.union sup.(f0 / 2) sup.(f1 / 2))
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) aig.gates);
  sup

let check_structural ~instance_text (p : Pcnf.t) t =
  let fp, iunivs, ideps = header_of_pcnf ~instance_text p in
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    if not (String.equal fp t.fingerprint) then
      fail "fingerprint mismatch: instance %s, certificate %s" fp t.fingerprint;
    if not (List.equal Int.equal iunivs t.univs) then fail "universal sets differ";
    if not (List.equal Int.equal (List.map fst ideps) (List.map fst t.deps)) then
      fail "existential sets differ";
    List.iter
      (fun (y, ds) ->
        let inst = match List.assoc_opt y ideps with Some l -> l | None -> [] in
        if not (subset ds inst) then
          fail "declared dependencies of %d exceed the instance's" y)
      t.deps;
    (match t.body with
    | Uncertified _ -> ()
    | Unsat_cert lines ->
        if lines = [] then fail "empty expansion refutation";
        List.iter
          (fun l ->
            let vars = List.sort Int.compare (List.map abs l) in
            if not (List.equal Int.equal vars iunivs) then
              fail "an expansion line does not assign exactly the universals")
          lines
    | Sat_cert aig ->
        let uset = IntSet.of_list iunivs in
        List.iter
          (fun (_, u) ->
            if not (IntSet.mem u uset) then fail "input labeled with non-universal %d" u)
          aig.inputs;
        if not (List.equal Int.equal (List.map fst t.deps) (List.map fst aig.outputs
                                                           |> List.sort_uniq Int.compare))
        then fail "outputs do not cover exactly the existentials";
        let sup = aig_supports aig in
        List.iter
          (fun (y, l) ->
            let declared =
              IntSet.of_list (match List.assoc_opt y t.deps with Some d -> d | None -> [])
            in
            IntSet.iter
              (fun u ->
                if not (IntSet.mem u declared) then
                  fail "Skolem output of %d depends on %d outside its declared set" y u)
              sup.(l / 2))
          aig.outputs);
    Ok ()
  with Bad msg -> Error msg

let to_skolem aig =
  let sk = Sk.create () in
  let m = Sk.man sk in
  let lit_of = Array.make aig.num_nodes M.false_ in
  List.iter (fun (nd, u) -> lit_of.(nd) <- M.input m (u - 1)) aig.inputs;
  let tr l = M.apply_sign lit_of.(l / 2) ~neg:(l land 1 = 1) in
  List.iter
    (fun (nd, f0, f1) -> lit_of.(nd) <- M.mk_and m (tr f0) (tr f1))
    (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) aig.gates);
  List.iter (fun (y, l) -> Sk.define sk (y - 1) (tr l)) aig.outputs;
  sk

let check ?(budget = Budget.unlimited) ~instance_text p t =
  Obs.Span.with_ "cert.check" (fun () ->
      Obs.Metrics.incr c_checked;
      match check_structural ~instance_text p t with
      | Error _ as e -> e
      | Ok () -> (
          match t.body with
          | Uncertified _ ->
              if is_inconsistent t then
                Error "certificate marks the verdict itself as inconsistent"
              else Ok ()
          | Sat_cert aig -> (
              let sk = to_skolem aig in
              match Sk.verify ~budget (Pcnf.to_formula p) sk with
              | Ok () -> Ok ()
              | Error f -> Error (Format.asprintf "%a" Sk.pp_failure f))
          | Unsat_cert lines -> (
              let assigns =
                List.map (fun l -> List.map (fun lit -> (abs lit - 1, lit > 0)) l) lines
              in
              match refute_expansion ~budget p assigns with
              | Refuted -> Ok ()
              | Not_refuted -> Error "expansion refutation does not hold: expansion is satisfiable")))
