(* The benchmark's statistics helpers and its serve-stream copy
   generator. *)

module Fam = Circuit.Families

let close = Alcotest.float 1e-9
let some_close = Alcotest.(option (float 1e-9))

let test_median_mad_geomean () =
  Alcotest.check close "odd median" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "mad" 1.0 (Stats.mad [ 1.0; 2.0; 3.0; 4.0; 100.0 ]);
  Alcotest.check close "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check_raises "empty median" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []));
  Alcotest.check_raises "non-positive geomean"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let ints n = List.init n (fun i -> float_of_int (i + 1))

(* a percentile is reported only with 10 samples beyond it *)
let test_quantile_refuses_thin_tails () =
  Alcotest.check some_close "p90 of 100" (Some 90.0) (Stats.quantile 0.9 (ints 100));
  Alcotest.check some_close "p90 of 99" None (Stats.quantile 0.9 (ints 99));
  Alcotest.check some_close "p95 of 200" (Some 190.0) (Stats.quantile 0.95 (ints 200));
  Alcotest.check some_close "p95 of 199" None (Stats.quantile 0.95 (ints 199));
  Alcotest.check some_close "p50 of 20" (Some 10.0) (Stats.quantile 0.5 (List.rev (ints 20)));
  Alcotest.check some_close "p50 of 19" None (Stats.quantile 0.5 (ints 19))

(* reference values from Python's statistics.quantiles(xs, n=4) *)
let test_quartiles_match_python () =
  let check name (a, b, c) xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (2.75, 5.5, 8.25) (ints 10);
  check "two samples" (0.75, 1.5, 2.25) [ 2.0; 1.0 ];
  check "unsorted five" (1.5, 3.0, 4.5) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  check "ten timings" (0.2975, 0.315, 0.3425)
    [ 0.31; 0.29; 0.35; 0.30; 0.33; 0.32; 0.28; 0.34; 0.36; 0.30 ];
  Alcotest.check close "iqr share" ((8.25 -. 2.75) /. 5.5) (Stats.iqr_share (ints 10))

let small_instances () =
  [
    Fam.adder ~bits:2 ~boxes:2 ~fault:false;
    Fam.adder ~bits:2 ~boxes:1 ~fault:true;
    Fam.bitcell ~cells:4 ~boxes:2 ~fault:false;
    Fam.lookahead ~cells:6 ~boxes:2 ~fault:true;
    Fam.pec_xor ~length:4 ~boxes:2 ~fault:false;
    Fam.z4 ~add_bits:1 ~boxes:1 ~fault:true;
    Fam.comp ~bits:4 ~boxes:1 ~fault:false;
    Fam.c432 ~groups:3 ~lines:2 ~boxes:1 ~fault:true;
  ]

let test_shuffle_permutes () =
  let rng = Hqs_util.Rng.create 3 in
  let l = List.init 50 Fun.id in
  let s = Variant.shuffle rng l in
  Alcotest.(check (list int)) "same elements" l (List.sort Int.compare s);
  Alcotest.(check bool) "order changed" false (List.equal Int.equal l s)

(* a copy must be a cache hit: same canonical key, and still a valid
   instance with the original's verdict *)
let test_rename_keeps_key_and_verdict () =
  let rng = Hqs_util.Rng.create 11 in
  List.iter
    (fun (inst : Fam.instance) ->
      let p = inst.Fam.pcnf in
      let key q = (Dqbf.Canon.canonicalize q).Dqbf.Canon.key in
      let verdict q = fst (Hqs.solve_pcnf q) = Hqs.Sat in
      for _ = 1 to 3 do
        let v = Variant.rename rng p in
        Alcotest.(check bool) (inst.Fam.id ^ " valid") true (Result.is_ok (Dqbf.Pcnf.validate v));
        Alcotest.(check bool)
          (inst.Fam.id ^ " text differs") false
          (String.equal (Dqbf.Pcnf.to_string v) (Dqbf.Pcnf.to_string p));
        Alcotest.(check string) (inst.Fam.id ^ " key") (key p).Dqbf.Canon.h1 (key v).Dqbf.Canon.h1;
        Alcotest.(check bool) (inst.Fam.id ^ " verdict") (verdict p) (verdict v)
      done)
    (small_instances ())

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median, MAD, geometric mean" `Quick test_median_mad_geomean;
          Alcotest.test_case "quantile refuses thin tails" `Quick test_quantile_refuses_thin_tails;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
        ] );
      ( "variant",
        [
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "rename keeps key and verdict" `Quick
            test_rename_keeps_key_and_verdict;
        ] );
    ]
