module M = Aig.Man

type step =
  | Def of int * M.lit (* y := fn, fn in the trail manager *)
  | Ite of { y : int; x : int; y1 : int }

type t = { tman : M.t; mutable steps : step list (* newest first *) }

let create () = { tman = M.create (); steps = [] }

(* copy a cone into [dst], preserving input variable ids *)
let import src root dst =
  match M.rebuild src [ root ] dst ~leaf:(M.input dst) with [ r ] -> r | _ -> assert false

let record_def t man y fn = t.steps <- Def (y, import man fn t.tman) :: t.steps
let record_const t y b = t.steps <- Def (y, if b then M.true_ else M.false_) :: t.steps
let record_ite t ~y ~x ~y1 = t.steps <- Ite { y; x; y1 } :: t.steps
let num_steps t = List.length t.steps

let reconstruct t =
  let model = Skolem.create () in
  let out = Skolem.man model in
  let defined : (int, M.lit) Hashtbl.t = Hashtbl.create 64 in
  let lookup v = Hashtbl.find_opt defined v in
  (* import a recorded definition, substituting already-reconstructed
     Skolem functions for the existentials it mentions *)
  let resolve fn =
    let imported = import t.tman fn out in
    M.compose out imported lookup
  in
  List.iter
    (fun step ->
      match step with
      | Def (y, fn) -> Hashtbl.replace defined y (resolve fn)
      | Ite { y; x; y1 } ->
          let branch0 = match lookup y with Some l -> l | None -> M.false_ in
          let branch1 = match lookup y1 with Some l -> l | None -> M.false_ in
          Hashtbl.replace defined y (M.mk_ite out (M.input out x) branch1 branch0))
    t.steps;
  Hashtbl.iter (fun y fn -> Skolem.define model y fn) defined;
  model

let record_literal t y ~var ~neg =
  t.steps <- Def (y, M.apply_sign (M.input t.tman var) ~neg) :: t.steps
