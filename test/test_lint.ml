(* Lint self-test: string fixtures per rule, each paired with a clean
   variant, plus the suppression and allowlist machinery. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rules_of ~path src = List.map (fun d -> d.Linter.rule) (Linter.lint_source ~path src)
let lib_path = "lib/fake/mod.ml"

let has rule ~path src = List.mem rule (rules_of ~path src)

let test_catch_all () =
  check "wildcard handler flagged" true
    (has Linter.Catch_all ~path:lib_path "let f x = try g x with _ -> 0\n");
  check "bare variable handler flagged" true
    (has Linter.Catch_all ~path:lib_path "let f x = try g x with e -> ignore e; 0\n");
  check "or-pattern hiding a wildcard flagged" true
    (has Linter.Catch_all ~path:lib_path "let f x = try g x with Not_found | _ -> 0\n");
  check "specific exception passes" false
    (has Linter.Catch_all ~path:lib_path "let f x = try g x with Not_found -> 0\n");
  check "multiple specific cases pass" false
    (has Linter.Catch_all ~path:lib_path
       "let f x = try g x with Not_found -> 0 | Failure _ -> 1\n")

let test_poly_compare () =
  check "bare compare flagged" true
    (has Linter.Poly_compare ~path:lib_path "let f a b = compare a b\n");
  check "Stdlib.compare flagged" true
    (has Linter.Poly_compare ~path:lib_path "let f = List.sort Stdlib.compare\n");
  check "Hashtbl.hash flagged" true
    (has Linter.Poly_compare ~path:lib_path "let h = Hashtbl.hash\n");
  check "first-class equality flagged" true
    (has Linter.Poly_compare ~path:lib_path "let mem x l = List.exists (( = ) x) l\n");
  check "applied equality passes" false
    (has Linter.Poly_compare ~path:lib_path "let f a b = a = b && a <> 0\n");
  check "monomorphic compare passes" false
    (has Linter.Poly_compare ~path:lib_path "let f = List.sort Int.compare\n");
  check "module-qualified compare passes" false
    (has Linter.Poly_compare ~path:lib_path "let f = List.sort Bitset.compare\n")

let test_obj_magic () =
  check "Obj.magic flagged" true (has Linter.Obj_magic ~path:lib_path "let f x = Obj.magic x\n");
  check "Obj.repr alone passes" false
    (has Linter.Obj_magic ~path:lib_path "let f x = Obj.repr x\n")

let test_failwith_scope () =
  let src = "let f () = failwith \"boom\"\n" in
  check "failwith flagged under lib/" true (has Linter.Failwith_lib ~path:lib_path src);
  check "failwith passes in bin/" false (has Linter.Failwith_lib ~path:"bin/tool.ml" src);
  check "failwith passes in test/" false (has Linter.Failwith_lib ~path:"test/t.ml" src)

let test_raw_fd () =
  check "Unix.openfile flagged outside lib/exec" true
    (has Linter.Raw_fd ~path:lib_path "let f p = Unix.openfile p [ Unix.O_RDONLY ] 0\n");
  check "Unix.pipe flagged in bin/" true
    (has Linter.Raw_fd ~path:"bin/tool.ml" "let p () = Unix.pipe ()\n");
  check "Unix.socket flagged" true
    (has Linter.Raw_fd ~path:lib_path
       "let s () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0\n");
  check "Unix.socketpair flagged" true
    (has Linter.Raw_fd ~path:lib_path
       "let s () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0\n");
  check "Unix.accept flagged" true
    (has Linter.Raw_fd ~path:lib_path "let a fd = Unix.accept fd\n");
  check "lib/exec is a sanctioned home" false
    (has Linter.Raw_fd ~path:"lib/exec/journal.ml" "let p () = Unix.pipe ()\n");
  check "lib/serve is a sanctioned home" false
    (has Linter.Raw_fd ~path:"lib/serve/daemon.ml"
       "let s () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0\n");
  check "other Unix calls pass" false
    (has Linter.Raw_fd ~path:lib_path "let r fd b = Unix.read fd b 0 1\n")

let test_wall_clock () =
  check "Unix.gettimeofday flagged outside lib/util" true
    (has Linter.Wall_clock ~path:lib_path "let t () = Unix.gettimeofday ()\n");
  check "Unix.time flagged" true
    (has Linter.Wall_clock ~path:lib_path "let t () = Unix.time ()\n");
  check "flagged in examples too" true
    (has Linter.Wall_clock ~path:"examples/demo.ml" "let t = Unix.gettimeofday ()\n");
  check "lib/util is the sanctioned home" false
    (has Linter.Wall_clock ~path:"lib/util/mono.ml" "let t () = Unix.gettimeofday ()\n");
  check "monotonic Budget.now passes" false
    (has Linter.Wall_clock ~path:lib_path "let t () = Hqs_util.Budget.now ()\n")

let test_no_stdout () =
  check "Printf.printf flagged under lib/" true
    (has Linter.No_stdout ~path:lib_path "let f x = Printf.printf \"%d\\n\" x\n");
  check "print_endline flagged" true
    (has Linter.No_stdout ~path:lib_path "let f s = print_endline s\n");
  check "print_string flagged" true
    (has Linter.No_stdout ~path:lib_path "let f s = print_string s\n");
  check "Stdlib-qualified form flagged" true
    (has Linter.No_stdout ~path:lib_path "let f s = Stdlib.print_endline s\n");
  check "lib/harness is the sanctioned home" false
    (has Linter.No_stdout ~path:"lib/harness/report.ml" "let f s = print_string s\n");
  check "bin/ may print" false
    (has Linter.No_stdout ~path:"bin/tool.ml" "let f s = print_endline s\n");
  check "stderr via Printf.eprintf passes" false
    (has Linter.No_stdout ~path:lib_path "let f s = Printf.eprintf \"%s\\n\" s\n");
  check "Buffer/Format sinks pass" false
    (has Linter.No_stdout ~path:lib_path "let f b s = Buffer.add_string b s\n")

let test_fork_site () =
  check "Unix.fork flagged under lib/" true
    (has Linter.Fork_site ~path:lib_path "let f () = Unix.fork ()\n");
  check "flagged in lib/serve too" true
    (has Linter.Fork_site ~path:"lib/serve/daemon.ml" "let f () = Unix.fork ()\n");
  check "flagged in another lib/exec module" true
    (has Linter.Fork_site ~path:"lib/exec/supervisor.ml" "let f () = Unix.fork ()\n");
  check "flagged under bin/" true
    (has Linter.Fork_site ~path:"bin/tool.ml" "let f () = Unix.fork ()\n");
  check "lib/exec/pool.ml is the one fork site" false
    (has Linter.Fork_site ~path:"lib/exec/pool.ml" "let f () = Unix.fork ()\n");
  check "tests may fork a daemon" false
    (has Linter.Fork_site ~path:"test/test_serve.ml" "let f () = Unix.fork ()\n");
  check "other Unix process calls pass" false
    (has Linter.Fork_site ~path:lib_path "let f pid = Unix.waitpid [] pid\n")

let test_cert_isolation () =
  let cc = "bin/certcheck.ml" in
  check "qualified solver reference flagged" true
    (has Linter.Cert_isolation ~path:cc "let f x = Sat.Solver.solve x\n");
  check "cert library itself flagged" true
    (has Linter.Cert_isolation ~path:cc "let f s = Cert.parse s\n");
  check "open of a solver library flagged" true
    (has Linter.Cert_isolation ~path:cc "open Dqbf\nlet x = 1\n");
  check "module alias of a solver library flagged" true
    (has Linter.Cert_isolation ~path:cc "module H = Hqs\nlet x = 1\n");
  check "local let open flagged" true
    (has Linter.Cert_isolation ~path:cc "let f () = let open Hqs_util in 1\n");
  check "stdlib modules pass" false
    (has Linter.Cert_isolation ~path:cc
       "let f l = List.sort Int.compare l\nlet g s = String.length s\n");
  check "bare local idents pass" false
    (has Linter.Cert_isolation ~path:cc "let solve x = x\nlet f x = solve x\n");
  check "solver references elsewhere pass" false
    (has Linter.Cert_isolation ~path:"bin/hqs_cli.ml" "let f x = Hqs.solve_pcnf x\n");
  (* the rule holds on the real source as committed *)
  let real = "../bin/certcheck.ml" in
  if Sys.file_exists real then
    check "committed certcheck.ml is isolated" false
      (has Linter.Cert_isolation ~path:"bin/certcheck.ml"
         (In_channel.with_open_bin real In_channel.input_all))

let test_syntax () =
  check "unparsable source reported" true (has Linter.Syntax ~path:lib_path "let let let\n");
  check "unparsable mli reported" true (has Linter.Syntax ~path:"lib/fake/mod.mli" "val val\n");
  check "clean mli passes" false (has Linter.Syntax ~path:"lib/fake/mod.mli" "val f : int -> int\n")

let test_missing_mli () =
  let diags =
    Linter.check_missing_mli
      [ "lib/a/x.ml"; "lib/a/y.ml"; "lib/a/y.mli"; "bin/z.ml"; "test/t.ml" ]
  in
  check_int "exactly the uncovered lib module" 1 (List.length diags);
  check "names the right file" true
    (match diags with [ d ] -> d.Linter.file = "lib/a/x.ml" | _ -> false)

let test_positions () =
  match Linter.lint_source ~path:lib_path "let a = 1\nlet f x = try g x with _ -> 0\n" with
  | [ d ] ->
      check_int "line" 2 d.Linter.line;
      check "rule" true (d.Linter.rule = Linter.Catch_all)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* suppression and the allowlist act in [lint_paths]; drive it through
   real files in a temp tree *)
let with_tree files k =
  let dir = Filename.temp_file "lintt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cleanup = ref [ dir ] in
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat dir rel in
      let parent = Filename.dirname path in
      let rec mk p =
        if not (Sys.file_exists p) then begin
          mk (Filename.dirname p);
          Unix.mkdir p 0o755;
          cleanup := p :: !cleanup
        end
      in
      mk parent;
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content);
      cleanup := path :: !cleanup)
    files;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.is_directory p then Sys.rmdir p else Sys.remove p)
        !cleanup)
    (fun () -> k dir)

let test_suppression () =
  with_tree
    [
      ("lib/a/x.ml", "(* lint: allow poly-compare *)\nlet h = Hashtbl.hash\n");
      ("lib/a/x.mli", "val h : 'a -> int\n");
      (* the marker covers its own line and the next; line 3 stays out of reach *)
      ("lib/a/y.ml", "let h = Hashtbl.hash (* lint: allow poly-compare *)\n\nlet c = compare\n");
      ("lib/a/y.mli", "val h : 'a -> int\nval c : 'a -> 'a -> int\n");
    ]
    (fun dir ->
      let diags = Linter.lint_paths [ dir ] in
      (* x.ml fully suppressed (line above); y.ml line 1 suppressed (same
         line), line 3 still reported *)
      check_int "only the unsuppressed finding remains" 1 (List.length diags);
      check "it is y.ml line 3" true
        (match diags with
        | [ d ] -> Filename.basename d.Linter.file = "y.ml" && d.Linter.line = 3
        | _ -> false))

let test_no_stdout_suppression () =
  with_tree
    [
      ("lib/a/x.ml", "(* lint: allow no-stdout *)\nlet f s = print_endline s\n");
      ("lib/a/x.mli", "val f : string -> unit\n");
      ("lib/a/y.ml", "let f s = print_endline s\n");
      ("lib/a/y.mli", "val f : string -> unit\n");
    ]
    (fun dir ->
      let diags = Linter.lint_paths [ dir ] in
      check_int "only the unsuppressed write remains" 1 (List.length diags);
      check "it is the no-stdout rule in y.ml" true
        (match diags with
        | [ d ] ->
            Filename.basename d.Linter.file = "y.ml" && d.Linter.rule = Linter.No_stdout
        | _ -> false))

let test_allowlist_and_walk () =
  with_tree
    [
      (* same suffix as the documented allowlist entry: failwith tolerated *)
      ("lib/sat/dimacs.ml", "let f () = failwith \"bad token\"\n");
      ("lib/sat/dimacs.mli", "val f : unit -> 'a\n");
      ("_build/lib/junk.ml", "let let let\n");
      (".hidden/junk.ml", "let let let\n");
    ]
    (fun dir ->
      check_int "allowlisted failwith and skipped dirs yield no findings" 0
        (List.length (Linter.lint_paths [ dir ])))

let test_run_exit_codes () =
  check_int "nonexistent path is a usage error" 2
    (Linter.run [ "/nonexistent/no/such/path" ]);
  with_tree
    [ ("README.txt", "not a source file\n"); ("lib/a/x.ml", "let x = 1\n");
      ("lib/a/x.mli", "val x : int\n") ]
    (fun dir ->
      check_int "path with no lintable files is a usage error" 2
        (Linter.run [ Filename.concat dir "README.txt" ]);
      check_int "clean tree passes" 0 (Linter.run [ dir ]);
      (* inject a finding and expect exit 1 *)
      let bad = Filename.concat dir "lib/a/y.ml" in
      Out_channel.with_open_bin bad (fun oc ->
          Out_channel.output_string oc "let f x = try x () with _ -> 0\n");
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () -> check_int "findings exit 1" 1 (Linter.run [ dir ])))

(* the cmdliner man page is the discoverability surface for the rule set
   and the suppression marker; if a rule is added without a doc entry the
   help must fail this test, not silently omit it *)
let test_help_lists_rules () =
  let out = Filename.temp_file "lint_help" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        match Unix.system (Printf.sprintf "../bin/lint.exe --help=plain >%s 2>&1" (Filename.quote out)) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      check_int "--help exits 0" 0 code;
      let help = In_channel.with_open_bin out In_channel.input_all in
      let contains ~needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun rule ->
          let name = Linter.rule_name rule in
          check (Printf.sprintf "help documents rule %s" name) true (contains ~needle:name help))
        Linter.all_rules;
      check "help documents the suppression marker" true (contains ~needle:"lint: allow" help))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "catch-all" `Quick test_catch_all;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "obj-magic" `Quick test_obj_magic;
          Alcotest.test_case "failwith scope" `Quick test_failwith_scope;
          Alcotest.test_case "raw-fd scope" `Quick test_raw_fd;
          Alcotest.test_case "wall-clock scope" `Quick test_wall_clock;
          Alcotest.test_case "no-stdout scope" `Quick test_no_stdout;
          Alcotest.test_case "fork-site scope" `Quick test_fork_site;
          Alcotest.test_case "cert isolation" `Quick test_cert_isolation;
          Alcotest.test_case "syntax" `Quick test_syntax;
          Alcotest.test_case "missing mli" `Quick test_missing_mli;
          Alcotest.test_case "positions" `Quick test_positions;
        ] );
      ( "driver",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "no-stdout suppression" `Quick test_no_stdout_suppression;
          Alcotest.test_case "allowlist and walk" `Quick test_allowlist_and_walk;
          Alcotest.test_case "run exit codes" `Quick test_run_exit_codes;
          Alcotest.test_case "help lists every rule" `Quick test_help_lists_rules;
        ] );
    ]
