open Hqs_util

let edges f =
  let exs = Formula.existentials f in
  List.concat_map
    (fun (y, dy) ->
      List.filter_map
        (fun (y', dy') ->
          if y <> y' && not (Bitset.subset dy dy') then Some (y, y') else None)
        exs)
    exs

let incomparable (_, d) (_, d') = (not (Bitset.subset d d')) && not (Bitset.subset d' d)

let incomparable_pairs f =
  let rec loop acc = function
    | [] -> List.rev acc
    | ((y, _) as e) :: rest ->
        let pair acc ((y', _) as e') = if incomparable e e' then (y, y') :: acc else acc in
        loop (List.fold_left pair acc rest) rest
  in
  loop [] (Formula.existentials f)

(* the first incomparable pair ends the search *)
let is_acyclic f =
  let rec go = function
    | [] -> true
    | e :: rest -> (not (List.exists (incomparable e) rest)) && go rest
  in
  go (Formula.existentials f)
