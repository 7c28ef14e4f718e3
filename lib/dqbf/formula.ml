open Hqs_util
module M = Aig.Man

(* the dependency sets live in an array indexed by variable ([None]: not
   an existential), so [existentials] comes out in variable order with
   no sort, and an update allocates nothing but the new set *)
type t = {
  mutable man : M.t;
  mutable matrix : M.lit;
  mutable univs : Bitset.t;
  mutable dep_sets : Bitset.t option array;
  mutable next_var : int;
}

let create ?node_limit () =
  {
    man = M.create ?node_limit ();
    matrix = M.true_;
    univs = Bitset.empty;
    dep_sets = [||];
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
let find t v = if v < Array.length t.dep_sets then t.dep_sets.(v) else None
let is_existential t v = Option.is_some (find t v)

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
  let n = Array.length t.dep_sets in
  if v >= n then begin
    let grown = Array.make (max (v + 1) (2 * n)) None in
    Array.blit t.dep_sets 0 grown 0 n;
    t.dep_sets <- grown
  end;
  t.dep_sets.(v) <- Some deps;
  bump t v

let fresh_var t =
  let v = t.next_var in
  t.next_var <- v + 1;
  v

let next_var t = t.next_var

let universals t = t.univs
let num_universals t = Bitset.cardinal t.univs

let deps t v = match find t v with Some d -> d | None -> raise Not_found

let set_deps t v d =
  if not (is_existential t v) then invalid_arg "Dqbf.Formula.set_deps";
  t.dep_sets.(v) <- Some d

let existentials t =
  let acc = ref [] in
  for v = Array.length t.dep_sets - 1 downto 0 do
    match t.dep_sets.(v) with Some d -> acc := (v, d) :: !acc | None -> ()
  done;
  !acc

let remove_universal t v =
  t.univs <- Bitset.remove v t.univs;
  Array.iteri
    (fun y -> function
      | Some d when Bitset.mem v d -> t.dep_sets.(y) <- Some (Bitset.remove v d)
      | Some _ | None -> ())
    t.dep_sets

let remove_existential t v = if is_existential t v then t.dep_sets.(v) <- None
let input t v = M.input t.man v

let copy t =
  let man, roots = M.compact t.man [ t.matrix ] in
  {
    man;
    matrix = (match roots with [ r ] -> r | _ -> assert false);
    univs = t.univs;
    dep_sets = Array.copy t.dep_sets;
    next_var = t.next_var;
  }

let pp fmt t =
  Format.fprintf fmt "forall %a.@ " Bitset.pp t.univs;
  List.iter (fun (y, d) -> Format.fprintf fmt "exists %d(%a).@ " y Bitset.pp d) (existentials t);
  Format.fprintf fmt "<matrix: %d ands>" (M.cone_size t.man t.matrix)
