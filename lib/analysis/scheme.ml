type t = Trivial | Rp

let default = Trivial
let name = function Trivial -> "trivial" | Rp -> "rp"

let of_string = function
  | "trivial" -> Some Trivial
  | "rp" -> Some Rp
  | _ -> None

let of_env ?(default = default) () =
  match Sys.getenv_opt "HQS_DEP_SCHEME" with
  | None | Some "" -> Ok default
  | Some s -> (
      match of_string s with
      | Some scheme -> Ok scheme
      | None ->
          Error (Printf.sprintf "HQS_DEP_SCHEME=%S: expected \"trivial\" or \"rp\"" s))
