type quant = Forall | Exists

type t = (quant * int list) list

let normalize blocks =
  let rec merge = function
    | [] -> []
    | (_, []) :: rest -> merge rest
    | (q, vs) :: rest -> (
        match merge rest with
        | (q', vs') :: tail when q = q' -> (q, vs @ vs') :: tail
        | tail -> (q, vs) :: tail)
  in
  merge blocks

let restrict blocks ~keep =
  normalize (List.map (fun (q, vs) -> (q, List.filter keep vs)) blocks)

let variables blocks = List.concat_map snd blocks

let quant_of blocks v =
  List.find_map (fun (q, vs) -> if List.mem v vs then Some q else None) blocks

let pp fmt blocks =
  List.iter
    (fun (q, vs) ->
      Format.fprintf fmt "%s %a. "
        (match q with Forall -> "forall" | Exists -> "exists")
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
        vs)
    blocks
