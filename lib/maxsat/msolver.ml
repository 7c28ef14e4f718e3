open Hqs_util
module S = Sat.Solver
module L = Sat.Lit

type answer = { cost : int; model : bool array }

let violated_count model soft =
  let clause_violated cl =
    not (List.exists (fun l -> if L.is_neg l then not model.(L.var l) else model.(L.var l)) cl)
  in
  List.fold_left (fun acc cl -> if clause_violated cl then acc + 1 else acc) 0 soft

let c_iterations = Obs.Metrics.counter "maxsat.iterations"

let solve ?(budget = Budget.unlimited) ~num_vars ~hard ~soft () =
  Obs.Span.with_ "maxsat.solve"
    ~attrs:[ ("hard", Obs.Int (List.length hard)); ("soft", Obs.Int (List.length soft)) ]
  @@ fun () ->
  let solver = S.create () in
  if num_vars > 0 then S.ensure_var solver (num_vars - 1);
  List.iter (S.add_clause solver) hard;
  (* relaxation literal per soft clause *)
  let relax =
    Array.of_list
      (List.map
         (fun cl ->
           let r = L.of_var (S.new_var solver) in
           S.add_clause solver (r :: cl);
           r)
         soft)
  in
  match S.solve ~budget solver with
  | S.Unsat -> None
  | S.Sat ->
      let take_model () = Array.init num_vars (S.value solver) in
      let best_model = ref (take_model ()) in
      (* count true violations, not relaxation values: the SAT solver may set
         a relaxation literal true even when its clause is satisfied *)
      let best_cost = ref (violated_count !best_model soft) in
      if !best_cost > 0 then begin
        let outputs = Totalizer.build solver relax in
        (* tighten: require fewer than [best_cost] violations and re-solve *)
        let continue = ref true in
        while !continue && !best_cost > 0 do
          Obs.Metrics.incr c_iterations;
          S.add_clause solver [ L.neg outputs.(!best_cost - 1) ];
          match S.solve ~budget solver with
          | S.Sat ->
              let m = take_model () in
              let c = violated_count m soft in
              assert (c < !best_cost);
              best_model := m;
              best_cost := c
          | S.Unsat -> continue := false
        done
      end;
      Some { cost = !best_cost; model = !best_model }
