(* Dense bitset: an int array of 62-bit words, normalized so that the last
   word is non-zero (canonical representation makes [equal]/[compare]/[hash]
   structural). *)

type t = int array

let bits_per_word = Sys.int_size - 1 (* 62 on 64-bit: keep sign bit clear *)

let empty : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let check_elt i = if i < 0 then invalid_arg "Bitset: negative element"

let singleton i =
  check_elt i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let a = Array.make (w + 1) 0 in
  a.(w) <- 1 lsl b;
  a

let mem i (s : t) =
  check_elt i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  w < Array.length s && s.(w) land (1 lsl b) <> 0

let add i (s : t) =
  check_elt i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let len = max (Array.length s) (w + 1) in
  let a = Array.make len 0 in
  Array.blit s 0 a 0 (Array.length s);
  a.(w) <- a.(w) lor (1 lsl b);
  a

let remove i (s : t) =
  check_elt i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  if w >= Array.length s then s
  else begin
    let a = Array.copy s in
    a.(w) <- a.(w) land lnot (1 lsl b);
    normalize a
  end

let union (x : t) (y : t) =
  let lx = Array.length x and ly = Array.length y in
  let a = Array.make (max lx ly) 0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- (if i < lx then x.(i) else 0) lor (if i < ly then y.(i) else 0)
  done;
  a

let inter (x : t) (y : t) =
  let n = min (Array.length x) (Array.length y) in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- x.(i) land y.(i)
  done;
  normalize a

let diff (x : t) (y : t) =
  let lx = Array.length x and ly = Array.length y in
  let a = Array.make lx 0 in
  for i = 0 to lx - 1 do
    a.(i) <- x.(i) land lnot (if i < ly then y.(i) else 0)
  done;
  normalize a

let subset (x : t) (y : t) =
  let lx = Array.length x and ly = Array.length y in
  if lx > ly then false
  else begin
    let rec loop i = i >= lx || (x.(i) land lnot y.(i) = 0 && loop (i + 1)) in
    loop 0
  end

let equal (x : t) (y : t) =
  let lx = Array.length x in
  lx = Array.length y
  &&
  let rec loop i = i >= lx || (x.(i) = y.(i) && loop (i + 1)) in
  loop 0

(* shortest-first, then word-wise — the order Stdlib.compare gave on the
   canonical representation, now independent of it *)
let compare (x : t) (y : t) =
  let lx = Array.length x and ly = Array.length y in
  if lx <> ly then Int.compare lx ly
  else begin
    let rec loop i =
      if i >= lx then 0
      else
        let c = Int.compare x.(i) y.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0
  end

(* FNV-1a over the words; words are already canonical (no trailing zeros) *)
let hash (s : t) =
  Array.fold_left (fun h w -> (h lxor (w lxor (w lsr 31))) * 0x01000193 land max_int) 0x811c9dc5 s

let popcount w =
  let rec loop w acc = if w = 0 then acc else loop (w land (w - 1)) (acc + 1) in
  loop w 0

let cardinal (s : t) = Array.fold_left (fun acc w -> acc + popcount w) 0 s
let is_empty (s : t) = Array.length s = 0

let iter f (s : t) =
  Array.iteri
    (fun wi w ->
      for b = 0 to bits_per_word - 1 do
        if w land (1 lsl b) <> 0 then f ((wi * bits_per_word) + b)
      done)
    s

let fold f (s : t) init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list (s : t) = List.rev (fold (fun i acc -> i :: acc) s [])
(* one array sized by the largest element; its word is the last and holds
   a set bit, so the result is already normalized *)
let of_list l =
  match l with
  | [] -> empty
  | _ ->
      let hi =
        List.fold_left
          (fun m i ->
            check_elt i;
            max m i)
          0 l
      in
      let a = Array.make ((hi / bits_per_word) + 1) 0 in
      List.iter
        (fun i ->
          let w = i / bits_per_word and b = i mod bits_per_word in
          a.(w) <- a.(w) lor (1 lsl b))
        l;
      a

let choose (s : t) =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) s;
    None
  with Found i -> Some i

let for_all p (s : t) =
  let exception Fail in
  try
    iter (fun i -> if not (p i) then raise Fail) s;
    true
  with Fail -> false

let exists p (s : t) = not (for_all (fun i -> not (p i)) s)
let filter p (s : t) = fold (fun i acc -> if p i then add i acc else acc) s empty

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Format.pp_print_int)
    (to_list s)
