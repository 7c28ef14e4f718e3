open Hqs_util
module M = Aig.Man

type t = { sman : M.t; defs : (int, M.lit) Hashtbl.t }

let create () = { sman = M.create (); defs = Hashtbl.create 32 }
let man t = t.sman
let define t y fn = Hashtbl.replace t.defs y fn
let find t y = Hashtbl.find_opt t.defs y

let bindings t =
  Hashtbl.fold (fun y fn acc -> (y, fn) :: acc) t.defs [] |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let eval t y env =
  match find t y with
  | None -> raise Not_found
  | Some fn -> M.eval t.sman fn env

let restrict t ~keep =
  let out = { sman = t.sman; defs = Hashtbl.create 32 } in
  Hashtbl.iter (fun y fn -> if keep y then Hashtbl.replace out.defs y fn) t.defs;
  out

type failure = Missing of int | Bad_support of int * int | Not_tautology

let pp_failure fmt = function
  | Missing y -> Format.fprintf fmt "existential %d has no Skolem function" y
  | Bad_support (y, x) ->
      Format.fprintf fmt "Skolem function of %d depends on %d outside its dependency set" y x
  | Not_tautology -> Format.fprintf fmt "substituted matrix is not a tautology"

(* copy a cone between managers, preserving input variable ids *)
let import src root dst =
  let table = Hashtbl.create 256 in
  let get e = M.apply_sign (Hashtbl.find table (M.node_of e)) ~neg:(M.is_compl e) in
  M.iter_cone src [ root ] (fun n ->
      let v =
        if n = 0 then M.false_
        else if M.is_input src (n * 2) then M.input dst (M.var_of_input src (n * 2))
        else begin
          let e0, e1 = M.fanins src (n * 2) in
          M.mk_and dst (get e0) (get e1)
        end
      in
      Hashtbl.replace table n v);
  get root

let verify ?(budget = Budget.unlimited) f model =
  let exception Fail of failure in
  try
    (* 1. every existential defined, with legal support *)
    List.iter
      (fun (y, deps) ->
        match find model y with
        | None -> raise (Fail (Missing y))
        | Some fn ->
            let sup = M.support model.sman fn in
            Bitset.iter
              (fun x -> if not (Bitset.mem x deps) then raise (Fail (Bad_support (y, x))))
              sup)
      (Formula.existentials f);
    (* 2. matrix[s_y / y] is a tautology *)
    let work = M.create () in
    let matrix = import (Formula.man f) (Formula.matrix f) work in
    let subst v =
      if Formula.is_existential f v then
        match find model v with Some fn -> Some (import model.sman fn work) | None -> None
      else None
    in
    let substituted = M.compose work matrix subst in
    if M.is_true substituted then Ok ()
    else if M.is_false substituted then Error Not_tautology
    else begin
      let solver = Sat.Solver.create () in
      let enc = Aig.Cnf_enc.create solver in
      let out = Aig.Cnf_enc.sat_lit work enc substituted in
      Sat.Solver.add_clause solver [ Sat.Lit.neg out ];
      match Sat.Solver.solve ~budget solver with
      | Sat.Solver.Unsat -> Ok ()
      | Sat.Solver.Sat -> Error Not_tautology
    end
  with Fail failure -> Error failure
