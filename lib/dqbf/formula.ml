open Hqs_util
module M = Aig.Man

type t = {
  mutable man : M.t;
  mutable matrix : M.lit;
  mutable univs : Bitset.t;
  dep_tbl : (int, Bitset.t) Hashtbl.t;
  mutable next_var : int;
}

let create ?node_limit () =
  {
    man = M.create ?node_limit ();
    matrix = M.true_;
    univs = Bitset.empty;
    dep_tbl = Hashtbl.create 64;
    next_var = 0;
  }

let man t = t.man
let matrix t = t.matrix
let set_matrix t m = t.matrix <- m

let replace_man t man matrix =
  t.man <- man;
  t.matrix <- matrix

let bump t v = if v >= t.next_var then t.next_var <- v + 1

let is_universal t v = Bitset.mem v t.univs
let is_existential t v = Hashtbl.mem t.dep_tbl v

let add_universal t v =
  if is_universal t v || is_existential t v then
    invalid_arg "Dqbf.Formula.add_universal: variable already quantified";
  t.univs <- Bitset.add v t.univs;
  bump t v

let add_existential t v ~deps =
  if is_universal t v || is_existential t v then
    invalid_arg "Dqbf.Formula.add_existential: variable already quantified";
  if not (Bitset.subset deps t.univs) then
    invalid_arg "Dqbf.Formula.add_existential: dependency is not universal";
  Hashtbl.replace t.dep_tbl v deps;
  bump t v

let fresh_var t =
  let v = t.next_var in
  t.next_var <- v + 1;
  v

let next_var t = t.next_var

let universals t = t.univs
let num_universals t = Bitset.cardinal t.univs

let deps t v =
  match Hashtbl.find_opt t.dep_tbl v with
  | Some d -> d
  | None -> raise Not_found

let set_deps t v d =
  if not (Hashtbl.mem t.dep_tbl v) then invalid_arg "Dqbf.Formula.set_deps";
  Hashtbl.replace t.dep_tbl v d

let existentials t =
  Hashtbl.fold (fun v d acc -> (v, d) :: acc) t.dep_tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let remove_universal t v =
  t.univs <- Bitset.remove v t.univs;
  Hashtbl.iter (fun y d -> if Bitset.mem v d then Hashtbl.replace t.dep_tbl y (Bitset.remove v d)) t.dep_tbl

let remove_existential t v = Hashtbl.remove t.dep_tbl v
let input t v = M.input t.man v

let copy t =
  let man, roots = M.compact t.man [ t.matrix ] in
  let dep_tbl = Hashtbl.copy t.dep_tbl in
  {
    man;
    matrix = (match roots with [ r ] -> r | _ -> assert false);
    univs = t.univs;
    dep_tbl;
    next_var = t.next_var;
  }

let pp fmt t =
  Format.fprintf fmt "forall %a.@ " Bitset.pp t.univs;
  List.iter (fun (y, d) -> Format.fprintf fmt "exists %d(%a).@ " y Bitset.pp d) (existentials t);
  Format.fprintf fmt "<matrix: %d ands>" (M.cone_size t.man t.matrix)
