open Hqs_util
module M = Aig.Man
module F = Dqbf.Formula

let check = Alcotest.(check bool)

type instance = {
  nu : int;
  ne : int;
  dep_masks : int list;
  clauses : (int * bool) list list;
}

let instance_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun nu ->
    int_range 1 3 >>= fun ne ->
    list_repeat ne (int_bound ((1 lsl nu) - 1)) >>= fun dep_masks ->
    let n = nu + ne in
    list_size (int_range 1 12) (list_size (int_range 1 3) (pair (int_bound (n - 1)) bool))
    >>= fun clauses -> return { nu; ne; dep_masks; clauses })

let instance_print { nu; ne; dep_masks; clauses } =
  Printf.sprintf "nu=%d ne=%d deps=[%s] clauses=%s" nu ne
    (String.concat ";" (List.map string_of_int dep_masks))
    (String.concat " "
       (List.map
          (fun c ->
            String.concat ","
              (List.map (fun (v, s) -> string_of_int (if s then -(v + 1) else v + 1)) c))
          clauses))

let instance_arb = QCheck.make ~print:instance_print instance_gen

let build { nu; ne = _; dep_masks; clauses } =
  let f = F.create () in
  for x = 0 to nu - 1 do
    F.add_universal f x
  done;
  List.iteri
    (fun i mask ->
      let deps =
        Bitset.of_list (List.filter (fun x -> mask land (1 lsl x) <> 0) (List.init nu Fun.id))
      in
      F.add_existential f (nu + i) ~deps)
    dep_masks;
  let man = F.man f in
  let lit (v, s) = M.apply_sign (M.input man v) ~neg:s in
  F.set_matrix f
    (M.mk_and_list man (List.map (fun c -> M.mk_or_list man (List.map lit c)) clauses));
  f

let example1 ~crossed =
  let f = F.create () in
  F.add_universal f 0;
  F.add_universal f 1;
  F.add_existential f 2 ~deps:(Bitset.singleton 0);
  F.add_existential f 3 ~deps:(Bitset.singleton 1);
  let man = F.man f in
  let x1 = M.input man 0 and x2 = M.input man 1 in
  let y1 = M.input man 2 and y2 = M.input man 3 in
  F.set_matrix f
    (if crossed then M.mk_and man (M.mk_iff man y1 x2) (M.mk_iff man y2 x1)
     else M.mk_and man (M.mk_iff man y1 x1) (M.mk_iff man y2 x2));
  f

let test_example1 () =
  let v, stats = Idq.solve (example1 ~crossed:false) in
  check "aligned sat" true v;
  check "some rounds ran" true (stats.Idq.rounds >= 1);
  let v, _ = Idq.solve (example1 ~crossed:true) in
  check "crossed unsat" false v

let test_trivial () =
  let f = F.create () in
  F.set_matrix f M.true_;
  check "true" true (fst (Idq.solve f));
  F.set_matrix f M.false_;
  check "false" false (fst (Idq.solve f))

let test_no_universals () =
  (* pure SAT instance: exists y z: y & !z *)
  let f = F.create () in
  F.add_existential f 0 ~deps:Bitset.empty;
  F.add_existential f 1 ~deps:Bitset.empty;
  let man = F.man f in
  F.set_matrix f (M.mk_and man (M.input man 0) (M.compl_ (M.input man 1)));
  check "sat" true (fst (Idq.solve f))

let test_timeout () =
  Alcotest.check_raises "timeout" Budget.Timeout (fun () ->
      ignore (Idq.solve ~budget:(Budget.of_seconds (-1.0)) (example1 ~crossed:false)))

let test_memout () =
  Alcotest.check_raises "memout" Budget.Out_of_memory_budget (fun () ->
      ignore (Idq.solve ~node_limit:4 (example1 ~crossed:false)))

(* a solve that raises leaves its counters in the caller's record: some
   node limit lets the crossed example run a round before the memout *)
let test_stats_after_memout () =
  let _, full = Idq.solve (example1 ~crossed:true) in
  check "the full solve runs rounds" true (full.Idq.rounds >= 2);
  let memout_after_a_round limit =
    let stats = Idq.new_stats () in
    match Idq.solve ~node_limit:limit ~stats (example1 ~crossed:true) with
    | _ -> false
    | exception Budget.Out_of_memory_budget -> stats.Idq.rounds >= 1 && stats.Idq.instance_nodes > 0
  in
  check "counters survive the memout" true
    (List.exists memout_after_a_round (List.init full.Idq.instance_nodes Fun.id))

(* idq --stats prints its counters on a TIMEOUT and a MEMOUT too *)
let test_cli_stats_every_outcome () =
  let run args =
    let out = Filename.temp_file "idq" ".out" and err = Filename.temp_file "idq" ".err" in
    let code =
      Sys.command
        (Filename.quote_command "../bin/idq_cli.exe" ~stdout:out ~stderr:err
           ("fixtures/inproc_basic.dqdimacs" :: "--stats" :: args))
    in
    let read path = In_channel.with_open_bin path In_channel.input_all in
    let r = (code, read out, read err) in
    Sys.remove out;
    Sys.remove err;
    r
  in
  List.iter
    (fun (args, code, line) ->
      let c, out, err = run args in
      let name = String.concat " " args in
      Alcotest.(check int) (name ^ " exit") code c;
      Alcotest.(check string) (name ^ " verdict") (line ^ "\n") out;
      check (name ^ " counters") true
        (String.starts_with ~prefix:"c rounds=" err
        && List.for_all
             (fun key -> Str.string_match (Str.regexp (".* " ^ key ^ "=")) err 0)
             [ "ground-vars"; "instance-nodes"; "total" ]))
    [
      ([], 10, "s cnf SAT");
      ([ "-t"; "0" ], 124, "s cnf TIMEOUT");
      ([ "--node-limit"; "4" ], 125, "s cnf MEMOUT");
    ]

let prop_agrees =
  QCheck.Test.make ~name:"idq agrees with expansion" ~count:400 instance_arb (fun inst ->
      let f = build inst in
      let expected = Dqbf.Reference.by_expansion f in
      fst (Idq.solve f) = expected)

let prop_agrees_with_hqs =
  QCheck.Test.make ~name:"idq agrees with hqs" ~count:300 instance_arb (fun inst ->
      let f = build inst in
      let v, _ = Hqs.solve_formula f in
      fst (Idq.solve f) = (v = Hqs.Sat))

let prop_rounds_bounded =
  QCheck.Test.make ~name:"idq terminates within 2^n + 1 rounds" ~count:200 instance_arb
    (fun inst ->
      let f = build inst in
      let _, stats = Idq.solve f in
      stats.Idq.rounds <= (1 lsl inst.nu) + 1)

let () =
  Alcotest.run "idq"
    [
      ( "known",
        [
          Alcotest.test_case "example 1" `Quick test_example1;
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "no universals" `Quick test_no_universals;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "memout" `Quick test_memout;
          Alcotest.test_case "stats after a memout" `Quick test_stats_after_memout;
          Alcotest.test_case "cli stats on every outcome" `Quick test_cli_stats_every_outcome;
        ] );
      ( "random",
        List.map QCheck_alcotest.to_alcotest
          [ prop_agrees; prop_agrees_with_hqs; prop_rounds_bounded ] );
    ]
