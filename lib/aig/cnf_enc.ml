module S = Sat.Solver
module L = Sat.Lit

type t = { solver : S.t; map : (int, int) Hashtbl.t (* AIG node -> SAT var *) }

let create solver = { solver; map = Hashtbl.create 256 }

let sat_lit man enc root =
  let node_var n = Hashtbl.find enc.map n in
  let edge_lit e = L.apply_sign (L.of_var (node_var (Man.node_of e))) ~neg:(Man.is_compl e) in
  Man.iter_cone man [ root ] (fun n ->
      if not (Hashtbl.mem enc.map n) then begin
        let v = S.new_var enc.solver in
        Hashtbl.add enc.map n v;
        if n = 0 then (* constant-false node *)
          S.add_clause enc.solver [ L.mk v ~neg:true ]
        else if Man.is_and man (n * 2) then begin
          let e0, e1 = Man.fanins man (n * 2) in
          let x = L.of_var v and l0 = edge_lit e0 and l1 = edge_lit e1 in
          S.add_clause enc.solver [ L.neg x; l0 ];
          S.add_clause enc.solver [ L.neg x; l1 ];
          S.add_clause enc.solver [ x; L.neg l0; L.neg l1 ]
        end
        (* inputs: just the fresh variable *)
      end);
  edge_lit root

let sat_var_of_aig_var man enc v = sat_lit man enc (Man.input man v)

let solve ?budget man root =
  if Man.is_false root then None
  else if Man.is_true root then Some (fun _ -> false)
  else begin
    let solver = S.create () in
    let enc = create solver in
    S.add_clause solver [ sat_lit man enc root ];
    match S.solve ?budget solver with
    | S.Unsat -> None
    | S.Sat ->
        (* the encoded nodes are exactly the cone: read its inputs' values *)
        let values = Hashtbl.create 64 in
        Hashtbl.iter
          (fun n v ->
            if n > 0 && Man.is_input man (n * 2) then
              Hashtbl.replace values (Man.var_of_input man (n * 2)) (S.value solver v))
          enc.map;
        Some (fun v -> Option.value (Hashtbl.find_opt values v) ~default:false)
  end
