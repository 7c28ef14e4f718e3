type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; size = 0; dummy }

let size v = v.size
let is_empty v = v.size = 0

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let ensure_capacity v n =
  if n > Array.length v.data then begin
    let cap = ref (Array.length v.data) in
    while !cap < n do
      cap := (!cap * 2) + 1
    done;
    let data = Array.make !cap v.dummy in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end

let push v x =
  ensure_capacity v (v.size + 1);
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let pop v =
  if v.size = 0 then invalid_arg "Vec.pop";
  v.size <- v.size - 1;
  let x = Array.unsafe_get v.data v.size in
  Array.unsafe_set v.data v.size v.dummy;
  x

let last v =
  if v.size = 0 then invalid_arg "Vec.last";
  Array.unsafe_get v.data (v.size - 1)

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Vec.shrink";
  for i = n to v.size - 1 do
    Array.unsafe_set v.data i v.dummy
  done;
  v.size <- n

let clear v = shrink v 0

let grow_to v n x =
  ensure_capacity v n;
  while v.size < n do
    Array.unsafe_set v.data v.size x;
    v.size <- v.size + 1
  done

let iter f v =
  for i = 0 to v.size - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.size && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let to_list v = List.init v.size (fun i -> v.data.(i))
let to_array v = Array.sub v.data 0 v.size

let of_list ~dummy l =
  let v = create ~capacity:(max 1 (List.length l)) ~dummy () in
  List.iter (push v) l;
  v

let swap_remove v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.swap_remove";
  v.size <- v.size - 1;
  v.data.(i) <- v.data.(v.size);
  v.data.(v.size) <- v.dummy

let copy v = { data = Array.copy v.data; size = v.size; dummy = v.dummy }

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.size
