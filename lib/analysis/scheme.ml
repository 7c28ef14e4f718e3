type t = Trivial | Rp

let default = Trivial
let name = function Trivial -> "trivial" | Rp -> "rp"

let of_string = function
  | "trivial" -> Some Trivial
  | "rp" -> Some Rp
  | _ -> None
