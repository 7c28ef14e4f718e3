module Rng = Hqs_util.Rng

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rename rng (p : Dqbf.Pcnf.t) =
  let map = Array.init p.Dqbf.Pcnf.num_vars Fun.id in
  let permute_class vars =
    List.iter2 (fun v w -> map.(v) <- w) vars (shuffle rng vars)
  in
  let declared = Array.make p.Dqbf.Pcnf.num_vars false in
  let exists = List.map fst p.Dqbf.Pcnf.exists in
  List.iter (fun v -> declared.(v) <- true) (p.Dqbf.Pcnf.univs @ exists);
  permute_class p.Dqbf.Pcnf.univs;
  permute_class exists;
  permute_class (List.filter (fun v -> not declared.(v)) (List.init p.Dqbf.Pcnf.num_vars Fun.id));
  let lit l = if l > 0 then map.(l - 1) + 1 else -(map.(-l - 1) + 1) in
  {
    Dqbf.Pcnf.num_vars = p.Dqbf.Pcnf.num_vars;
    univs = shuffle rng (List.map (fun u -> map.(u)) p.Dqbf.Pcnf.univs);
    exists =
      shuffle rng
        (List.map
           (fun (y, deps) -> (map.(y), shuffle rng (List.map (fun x -> map.(x)) deps)))
           p.Dqbf.Pcnf.exists);
    clauses = shuffle rng (List.map (fun c -> shuffle rng (List.map lit c)) p.Dqbf.Pcnf.clauses);
  }
