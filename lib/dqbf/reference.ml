open Hqs_util
module M = Aig.Man

(* index of a projection: bits of sigma restricted to [deps], packed in the
   order given by [Bitset.to_list deps] *)
let project sigma deps =
  let bits = ref 0 in
  List.iteri (fun i x -> if sigma x then bits := !bits lor (1 lsl i)) (Bitset.to_list deps);
  !bits

let by_expansion ?(budget = Budget.unlimited) f =
  let univs = Bitset.to_list (Formula.universals f) in
  let n = List.length univs in
  if n > 20 then invalid_arg "Reference.by_expansion: too many universals";
  let man = M.create () in
  (* rebuild the matrix inside a private manager *)
  let matrix =
    match M.rebuild (Formula.man f) [ Formula.matrix f ] man ~leaf:(M.input man) with
    | [ r ] -> r
    | _ -> assert false
  in
  let exists = Formula.existentials f in
  (* ground variables: fresh ids above everything in use *)
  let next = ref (List.fold_left (fun acc (y, _) -> max acc (y + 1)) (n + 1) exists) in
  List.iter (fun x -> next := max !next (x + 1)) univs;
  let ground : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let ground_var y proj =
    match Hashtbl.find_opt ground (y, proj) with
    | Some v -> v
    | None ->
        let v = !next in
        incr next;
        Hashtbl.add ground (y, proj) v;
        v
  in
  let copies = ref [] in
  for bits = 0 to (1 lsl n) - 1 do
    let sigma =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun i x -> Hashtbl.replace tbl x (bits land (1 lsl i) <> 0)) univs;
      fun x -> Hashtbl.find tbl x
    in
    let subst v =
      if Formula.is_universal f v then Some (if sigma v then M.true_ else M.false_)
      else begin
        match List.assoc_opt v exists with
        | Some deps -> Some (M.input man (ground_var v (project sigma deps)))
        | None -> None
      end
    in
    copies := M.compose man matrix subst :: !copies
  done;
  Option.is_some (Aig.Cnf_enc.solve ~budget man (M.mk_and_list man !copies))

let by_skolem_enum f =
  let univs = Bitset.to_list (Formula.universals f) in
  let n = List.length univs in
  let exists = Formula.existentials f in
  (* table sizes: 2^|D_y| bits per existential *)
  let table_bits = List.map (fun (_, d) -> 1 lsl Bitset.cardinal d) exists in
  let total_bits = List.fold_left ( + ) 0 table_bits in
  if total_bits > 22 || n > 16 then invalid_arg "Reference.by_skolem_enum: too large";
  let man = Formula.man f in
  let matrix = Formula.matrix f in
  let check tables =
    (* tables: per existential, an int of 2^|D_y| bits *)
    let ok = ref true in
    for bits = 0 to (1 lsl n) - 1 do
      if !ok then begin
        let sigma =
          let tbl = Hashtbl.create 8 in
          List.iteri (fun i x -> Hashtbl.replace tbl x (bits land (1 lsl i) <> 0)) univs;
          fun x -> Hashtbl.find tbl x
        in
        let env v =
          if Formula.is_universal f v then sigma v
          else begin
            match List.assoc_opt v exists with
            | Some deps ->
                let rec idx_of y = function
                  | [] -> raise Not_found
                  | (y', _) :: _ when y' = y -> 0
                  | _ :: rest -> 1 + idx_of y rest
                in
                let i = idx_of v exists in
                let table = List.nth tables i in
                table land (1 lsl project sigma deps) <> 0
            | None -> false
          end
        in
        if not (M.eval man matrix env) then ok := false
      end
    done;
    !ok
  in
  (* enumerate all table combinations *)
  let rec enum acc = function
    | [] -> check (List.rev acc)
    | bits :: rest ->
        let found = ref false in
        let t = ref 0 in
        while (not !found) && !t < 1 lsl bits do
          if enum (!t :: acc) rest then found := true;
          incr t
        done;
        !found
  in
  enum [] table_bits
