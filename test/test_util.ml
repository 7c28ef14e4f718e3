open Hqs_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ Vec *)

let test_vec_push_pop () =
  let v = Vec.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "size" 100 (Vec.size v);
  check_int "get 42" 42 (Vec.get v 42);
  check_int "last" 99 (Vec.last v);
  check_int "pop" 99 (Vec.pop v);
  check_int "size after pop" 99 (Vec.size v);
  Vec.shrink v 10;
  check_int "size after shrink" 10 (Vec.size v);
  check_int "get after shrink" 9 (Vec.get v 9)

let test_vec_swap_remove () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  Vec.swap_remove v 1;
  check_int "size" 3 (Vec.size v);
  check "moved last" true (Vec.to_list v = [ 1; 4; 3 ])

let test_vec_grow_to () =
  let v = Vec.create ~dummy:0 () in
  Vec.grow_to v 5 7;
  check "grown" true (Vec.to_list v = [ 7; 7; 7; 7; 7 ]);
  Vec.grow_to v 3 9;
  check_int "no shrink" 5 (Vec.size v)

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      Vec.clear v;
      ignore (Vec.pop v))

let test_vec_sort () =
  let v = Vec.of_list ~dummy:0 [ 3; 1; 2 ] in
  Vec.sort Int.compare v;
  check "sorted" true (Vec.to_list v = [ 1; 2; 3 ])

(* --------------------------------------------------------------- Bitset *)

let test_bitset_basic () =
  let s = Bitset.of_list [ 1; 5; 100 ] in
  check "mem 1" true (Bitset.mem 1 s);
  check "mem 100" true (Bitset.mem 100 s);
  check "not mem 2" false (Bitset.mem 2 s);
  check_int "cardinal" 3 (Bitset.cardinal s);
  check "to_list sorted" true (Bitset.to_list s = [ 1; 5; 100 ])

let test_bitset_remove_normalizes () =
  let s = Bitset.singleton 100 in
  let s = Bitset.remove 100 s in
  check "empty after remove" true (Bitset.is_empty s);
  check "equal empty" true (Bitset.equal s Bitset.empty);
  check_int "hash equal" (Bitset.hash Bitset.empty) (Bitset.hash s)

let test_bitset_ops () =
  let a = Bitset.of_list [ 1; 2; 3 ] and b = Bitset.of_list [ 2; 3; 4 ] in
  check "union" true (Bitset.to_list (Bitset.union a b) = [ 1; 2; 3; 4 ]);
  check "inter" true (Bitset.to_list (Bitset.inter a b) = [ 2; 3 ]);
  check "diff" true (Bitset.to_list (Bitset.diff a b) = [ 1 ]);
  check "subset no" false (Bitset.subset a b);
  check "subset yes" true (Bitset.subset (Bitset.of_list [ 2; 3 ]) a)

let bitset_gen =
  QCheck.Gen.(map Bitset.of_list (list_size (int_bound 20) (int_bound 150)))

let bitset_arb = QCheck.make ~print:(Format.asprintf "%a" Bitset.pp) bitset_gen

let prop_bitset_union_subset =
  QCheck.Test.make ~name:"bitset: a subset (a union b)" ~count:200
    (QCheck.pair bitset_arb bitset_arb) (fun (a, b) ->
      Bitset.subset a (Bitset.union a b) && Bitset.subset b (Bitset.union a b))

let prop_bitset_diff_inter_disjoint =
  QCheck.Test.make ~name:"bitset: diff and inter partition" ~count:200
    (QCheck.pair bitset_arb bitset_arb) (fun (a, b) ->
      let d = Bitset.diff a b and i = Bitset.inter a b in
      Bitset.equal (Bitset.union d i) a && Bitset.is_empty (Bitset.inter d b))

let prop_bitset_model =
  (* compare against a sorted-int-list model *)
  QCheck.Test.make ~name:"bitset: agrees with list model" ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_bound 30) (QCheck.int_bound 200))
       (QCheck.list_of_size (QCheck.Gen.int_bound 30) (QCheck.int_bound 200)))
    (fun (la, lb) ->
      let module S = Set.Make (Int) in
      let sa = S.of_list la and sb = S.of_list lb in
      let a = Bitset.of_list la and b = Bitset.of_list lb in
      (* of_list builds the same normalized set as folding add, for
         unsorted input with duplicates and for [] *)
      let same_as_fold l =
        let folded = List.fold_left (fun s i -> Bitset.add i s) Bitset.empty l in
        let built = Bitset.of_list l in
        Bitset.equal built folded && Bitset.hash built = Bitset.hash folded
      in
      List.for_all same_as_fold [ la; lb; la @ la; List.rev_append lb la; [] ]
      && Bitset.to_list (Bitset.union a b) = S.elements (S.union sa sb)
      && Bitset.to_list (Bitset.inter a b) = S.elements (S.inter sa sb)
      && Bitset.to_list (Bitset.diff a b) = S.elements (S.diff sa sb)
      && Bitset.subset a b = S.subset sa sb
      && Bitset.cardinal a = S.cardinal sa)

(* ----------------------------------------------------------------- Heap *)

let test_heap_sorts () =
  let scores = [| 5.0; 1.0; 9.0; 3.0; 7.0 |] in
  let h = Heap.create ~cmp:(fun a b -> scores.(a) > scores.(b)) () in
  List.iter (Heap.insert h) [ 0; 1; 2; 3; 4 ];
  let order = List.init 5 (fun _ -> Heap.pop h) in
  check "max-first order" true (order = [ 2; 4; 0; 3; 1 ])

let test_heap_update () =
  let scores = [| 1.0; 2.0; 3.0 |] in
  let h = Heap.create ~cmp:(fun a b -> scores.(a) > scores.(b)) () in
  List.iter (Heap.insert h) [ 0; 1; 2 ];
  scores.(0) <- 10.0;
  Heap.update h 0;
  check_int "updated max" 0 (Heap.pop h);
  check "mem after pop" false (Heap.mem h 0);
  Heap.insert h 0;
  check "mem after reinsert" true (Heap.mem h 0)

let prop_heap_pop_order =
  QCheck.Test.make ~name:"heap: pops in decreasing score order" ~count:100
    (QCheck.list_of_size QCheck.Gen.(int_range 1 50) (QCheck.int_bound 1000))
    (fun l ->
      let scores = Array.of_list (List.map float_of_int l) in
      let h = Heap.create ~cmp:(fun a b -> scores.(a) > scores.(b)) () in
      Array.iteri (fun i _ -> Heap.insert h i) scores;
      let rec drain acc = if Heap.is_empty h then List.rev acc else drain (Heap.pop h :: acc) in
      let popped = drain [] in
      let sorted_scores = List.map (fun i -> scores.(i)) popped in
      List.sort (fun a b -> Float.compare b a) sorted_scores = sorted_scores
      && List.length popped = Array.length scores)

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 10 (fun _ -> Rng.bits a) in
  let ys = List.init 10 (fun _ -> Rng.bits b) in
  check "same seed same stream" true (xs = ys);
  let c = Rng.create 43 in
  let zs = List.init 10 (fun _ -> Rng.bits c) in
  check "different seed different stream" false (xs = zs)

let test_rng_int_range () =
  let r = Rng.create 7 in
  let ok = ref true in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    if x < 0 || x >= 10 then ok := false
  done;
  check "in range" true !ok

(* --------------------------------------------------------------- Budget *)

let test_budget () =
  let b = Budget.of_seconds 3600.0 in
  Budget.check b;
  check "not expired" false (Budget.expired b);
  let e = Budget.of_seconds (-1.0) in
  check "expired" true (Budget.expired e);
  Alcotest.check_raises "raises" Budget.Timeout (fun () -> Budget.check e);
  check "unlimited remaining" true (Budget.remaining Budget.unlimited = infinity)

let test_budget_sub () =
  let parent = Budget.of_seconds 3600.0 in
  (* a child gets a fraction of the parent's remaining time *)
  let stage = Budget.sub ~frac:0.001 parent in
  check "stage clipped" true (Budget.remaining stage <= 3.7 && Budget.remaining stage > 3.0);
  check "parent untouched" true (Budget.remaining parent > 3500.0);
  let wide = Budget.sub ~frac:2.0 parent in
  check "child never outlives parent" true (Budget.remaining wide <= 3600.1);
  check "child of an expired parent expired" true
    (Budget.expired (Budget.sub ~frac:0.5 (Budget.of_seconds (-1.0))));
  check "unlimited sub stays unlimited" true
    (Budget.remaining (Budget.sub ~frac:0.25 Budget.unlimited) = infinity)

let test_budget_mem_governor () =
  check "heap words positive" true (Budget.heap_words () > 0);
  let roomy = Budget.with_mem_limit_mb Budget.unlimited 1_000_000 in
  Budget.check roomy;
  check "not exceeded" false (Budget.mem_exceeded roomy);
  (* the live heap of a running test is far beyond a 0 MB ceiling *)
  let tiny = Budget.with_mem_limit_mb Budget.unlimited 0 in
  check "tiny ceiling exceeded" true (Budget.mem_exceeded tiny);
  Alcotest.check_raises "raises memout" Budget.Out_of_memory_budget (fun () -> Budget.check tiny);
  (* inherited through sub *)
  check "sub inherits ceiling" true
    (Budget.mem_exceeded
       (Budget.sub ~frac:0.5 (Budget.with_mem_limit_mb (Budget.of_seconds 10.0) 0)));
  check "limit readable" true (Budget.mem_limit_words tiny = Some 0);
  check "no limit by default" true (Budget.mem_limit_words Budget.unlimited = None)

(* ---------------------------------------------------------------- Chaos *)

let test_chaos_off () =
  check "off never fires" false (Chaos.fire Chaos.off "serve.cert.poison:1#1");
  check "off never fires a kill" false
    (Chaos.fire Chaos.off (Chaos.worker_kill_point ~task:"t0" ~attempt:1))

let test_chaos_armed_points () =
  let point = Chaos.worker_kill_point ~task:"t0" ~attempt:1 in
  let plan = Chaos.arm [ point; "serve.cert.poison:1#1" ] in
  check "armed point fires on every query" true
    (List.for_all Fun.id (List.init 5 (fun _ -> Chaos.fire plan point)));
  check "other armed point fires" true (Chaos.fire plan "serve.cert.poison:1#1");
  check "next attempt is unarmed" false
    (Chaos.fire plan (Chaos.worker_kill_point ~task:"t0" ~attempt:2));
  check "unarmed point never fires" false
    (List.exists Fun.id (List.init 5 (fun _ -> Chaos.fire plan "c")))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "hqs_util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop/shrink" `Quick test_vec_push_pop;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "grow_to" `Quick test_vec_grow_to;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "sort" `Quick test_vec_sort;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "remove normalizes" `Quick test_bitset_remove_normalizes;
          Alcotest.test_case "set ops" `Quick test_bitset_ops;
        ]
        @ qsuite [ prop_bitset_union_subset; prop_bitset_diff_inter_disjoint; prop_bitset_model ]
      );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "update" `Quick test_heap_update;
        ]
        @ qsuite [ prop_heap_pop_order ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline" `Quick test_budget;
          Alcotest.test_case "sub-budgets" `Quick test_budget_sub;
          Alcotest.test_case "memory governor" `Quick test_budget_mem_governor;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "off" `Quick test_chaos_off;
          Alcotest.test_case "armed points" `Quick test_chaos_armed_points;
        ] );
    ]
