let sorted name xs =
  if xs = [] then invalid_arg ("Stats." ^ name ^ ": no samples");
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted "median" xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum xs = (sorted "minimum" xs).(0)

let mad xs =
  let m = median xs in
  median (List.map (fun x -> Float.abs (x -. m)) xs)

let geomean xs =
  let a = sorted "geomean" xs in
  if a.(0) <= 0.0 then invalid_arg "Stats.geomean: non-positive sample";
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int (Array.length a))

let quantile q xs =
  let a = sorted "quantile" xs in
  let n = Array.length a in
  (* the epsilon keeps 0.9 *. 100. from ranking as 91 *)
  let rank = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))) in
  if n - rank >= 10 then Some a.(rank - 1) else None

let quartiles xs =
  let a = sorted "quartiles" xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: needs 2 samples";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  (cut 1, cut 2, cut 3)

let iqr_share xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2
