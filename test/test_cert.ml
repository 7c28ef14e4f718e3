(* Certificate pipeline: emission from real solves, in-library checking,
   and roundtrips through the INDEPENDENT external checker binary
   (../bin/certcheck.exe — tests run in _build/default/test), plus the
   seeded-mutation negatives: 100/100 single-bit corruptions of a valid
   artifact must be rejected, the unmutated artifact never. *)

module P = Dqbf.Pcnf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let certcheck = "../bin/certcheck.exe"

(* y3 = x1 XOR x2 is the unique Skolem function: every semantic mutation
   of the certificate is guaranteed to be caught. *)
let xor_text = "p cnf 3 4\na 1 2 0\nd 3 1 2 0\n1 2 -3 0\n1 -2 3 0\n-1 2 3 0\n-1 -2 -3 0\n"

(* y2 must equal x1 but may not depend on it: UNSAT, and the expansion
   refutation needs both universal assignments — dropping either line
   leaves a satisfiable rest, so u-line mutations are always caught. *)
let unsat_text = "p cnf 2 2\na 1 0\nd 2 0\n1 -2 0\n-1 2 0\n"

let write_temp suffix content =
  let path = Filename.temp_file "certt" suffix in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content);
  path

let exit_code cmd =
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255

(* run the external checker on raw texts; returns its exit code *)
let certcheck_on ~instance_text ~cert_text =
  let inst = write_temp ".dqdimacs" instance_text in
  let cert = write_temp ".cert" cert_text in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove inst;
      Sys.remove cert)
    (fun () -> exit_code (Printf.sprintf "%s %s %s >/dev/null 2>&1" certcheck inst cert))

let solve_model text =
  let pcnf = P.parse_string text in
  match Hqs.run ~model:true pcnf with
  | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; _ } -> (pcnf, model)
  | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = None; _ } -> Alcotest.fail "no model produced"
  | _ -> Alcotest.fail "unexpected UNSAT"

let sat_cert text =
  let pcnf, model = solve_model text in
  (pcnf, Cert.of_skolem ~instance_text:text pcnf model)

let test_fingerprint () =
  Alcotest.(check string) "stable" (Cert.fingerprint "") (Cert.fingerprint "");
  check "distinct inputs, distinct prints" false
    (String.equal (Cert.fingerprint "a") (Cert.fingerprint "b"));
  check_int "16 hex chars" 16 (String.length (Cert.fingerprint xor_text))

let test_sat_roundtrip () =
  let pcnf, cert = sat_cert xor_text in
  check "status SAT" true (String.equal (Cert.status cert) "SAT");
  (match Cert.check ~instance_text:xor_text pcnf cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in-library check rejected: %s" e);
  (* render/parse inverse *)
  (match Cert.parse (Cert.render cert) with
  | Ok cert' ->
      Alcotest.(check string) "reparse renders identically" (Cert.render cert)
        (Cert.render cert')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  check_int "external checker verifies" 0
    (certcheck_on ~instance_text:xor_text ~cert_text:(Cert.render cert))

let test_unsat_roundtrip () =
  let pcnf = P.parse_string unsat_text in
  let cert = Cert.of_unsat ~instance_text:unsat_text pcnf in
  check "status UNSAT" true (String.equal (Cert.status cert) "UNSAT");
  (match Cert.check ~instance_text:unsat_text pcnf cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in-library check rejected: %s" e);
  check_int "external checker verifies" 0
    (certcheck_on ~instance_text:unsat_text ~cert_text:(Cert.render cert))

let test_uncertified () =
  let pcnf = P.parse_string unsat_text in
  let cert = Cert.of_unsat ~max_univs:0 ~instance_text:unsat_text pcnf in
  check "explicitly uncertified" true (String.equal (Cert.status cert) "UNCERTIFIED");
  (match Cert.check ~instance_text:unsat_text pcnf cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "uncertified artifact should pass vacuously: %s" e);
  check_int "external checker exits 3" 3
    (certcheck_on ~instance_text:unsat_text ~cert_text:(Cert.render cert))

let test_wrong_instance () =
  let _, cert = sat_cert xor_text in
  (* same grammar, different instance bytes: fingerprint mismatch *)
  check_int "fingerprint mismatch is malformed" 2
    (certcheck_on ~instance_text:unsat_text ~cert_text:(Cert.render cert));
  let pcnf' = P.parse_string unsat_text in
  check "in-library check rejects too" true
    (match Cert.check ~instance_text:unsat_text pcnf' cert with Ok () -> false | Error _ -> true)

let test_inconsistent_marker () =
  let pcnf = P.parse_string unsat_text in
  let cert = Cert.of_unsat ~instance_text:unsat_text pcnf in
  let bad =
    { cert with Cert.body = Cert.Uncertified (Cert.inconsistent_reason ^ ": test") }
  in
  check "marked inconsistent" true (Cert.is_inconsistent bad);
  check "full check treats it as a violation" true
    (match Cert.check ~instance_text:unsat_text pcnf bad with Ok () -> false | Error _ -> true)

let test_parse_negatives () =
  let reject s = check ("rejected: " ^ s) true (Result.is_error (Cert.parse s)) in
  reject "";
  reject "s cert SAT\n";
  reject "s cert SAT\nh 00\na 1 0\nn 1\n";
  (* gate referencing a later node *)
  reject "s cert SAT\nh 00\na 1 0\nd 2 0\nn 3\ng 1 4 4\ni 2 1\no 2 2\n";
  reject "s cert BOGUS\nh 00\na 0\n"

(* ----------------------------------------------- seeded mutations *)

(* Single-bit mutations of valid artifacts, each provably detectable on
   the two fixture instances above (forced Skolem function; two-line
   expansion where each line is load-bearing). Operators mutate the
   rendered TEXT so the external parser is exercised too. *)

let split_lines s = String.split_on_char '\n' (String.trim s)
let join_lines l = String.concat "\n" l ^ "\n"

let mutate_line pred f lines st =
  let candidates = List.filteri (fun i _ -> pred i (List.nth lines i)) lines in
  if candidates = [] then None
  else
    let nth = Random.State.int st (List.length candidates) in
    let count = ref (-1) in
    Some
      (List.mapi
         (fun i line ->
           if pred i line then begin
             incr count;
             if !count = nth then f line else line
           end
           else line)
         lines)

let starts p s = String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p

(* operator pool: (name, applies-to-status, mutation) *)
let operators =
  [
    ( "output-flip",
      `Sat,
      fun lines st ->
        mutate_line
          (fun _ l -> starts "o " l)
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "o"; y; lit ] -> Printf.sprintf "o %s %d" y (int_of_string lit lxor 1)
            | _ -> l)
          lines st );
    ( "dep-drop",
      `Sat,
      fun lines st ->
        (* d 3 1 2 0 -> drop one dep; support {1,2} exceeds either *)
        mutate_line
          (fun _ l -> starts "d " l && List.length (String.split_on_char ' ' l) > 3)
          (fun l ->
            match String.split_on_char ' ' l with
            | "d" :: y :: deps0 ->
                let deps = List.filter (fun t -> not (String.equal t "0")) deps0 in
                let keep = List.filteri (fun i _ -> i > 0) deps in
                "d " ^ y ^ " " ^ String.concat " " (keep @ [ "0" ])
            | _ -> l)
          lines st );
    ( "fingerprint-flip",
      `Both,
      fun lines st ->
        mutate_line
          (fun _ l -> starts "h " l)
          (fun l ->
            let b = Bytes.of_string l in
            let i = 2 + Random.State.int st (Bytes.length b - 2) in
            let c = Bytes.get b i in
            Bytes.set b i (if Char.equal c '0' then '1' else '0');
            Bytes.to_string b)
          lines st );
    ( "univ-drop",
      `Both,
      fun lines st ->
        mutate_line
          (fun _ l -> starts "a " l && List.length (String.split_on_char ' ' l) > 2)
          (fun l ->
            match String.split_on_char ' ' l with
            | "a" :: rest ->
                let vars = List.filter (fun t -> not (String.equal t "0")) rest in
                let keep = List.filteri (fun i _ -> i > 0) vars in
                "a " ^ String.concat " " (keep @ [ "0" ])
            | _ -> l)
          lines st );
    ( "uline-flip",
      `Unsat,
      fun lines st ->
        (* flipping the single literal duplicates the other assignment:
           the surviving half of the expansion is satisfiable *)
        mutate_line
          (fun _ l -> starts "u " l)
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "u"; lit; "0" ] -> Printf.sprintf "u %d 0" (- (int_of_string lit))
            | _ -> l)
          lines st );
    ( "xcount-bump",
      `Unsat,
      fun lines st ->
        mutate_line
          (fun _ l -> starts "x " l)
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "x"; k ] -> Printf.sprintf "x %d" (int_of_string k + 1)
            | _ -> l)
          lines st );
  ]

let test_mutations () =
  let _, sat_c = sat_cert xor_text in
  let sat_rendered = Cert.render sat_c in
  let unsat_pcnf = P.parse_string unsat_text in
  let unsat_rendered = Cert.render (Cert.of_unsat ~instance_text:unsat_text unsat_pcnf) in
  check_int "unmutated SAT artifact accepted" 0
    (certcheck_on ~instance_text:xor_text ~cert_text:sat_rendered);
  check_int "unmutated UNSAT artifact accepted" 0
    (certcheck_on ~instance_text:unsat_text ~cert_text:unsat_rendered);
  (* deterministic QCheck generator stream: 100 operator picks *)
  let st = Random.State.make [| 0xC0FFEE |] in
  let gen = QCheck.Gen.int_range 0 (List.length operators - 1) in
  let picks = QCheck.Gen.generate ~rand:st ~n:100 gen in
  let rejected = ref 0 in
  List.iteri
    (fun i pick ->
      let name, scope, op = List.nth operators pick in
      let instance_text, rendered =
        match scope with
        | `Sat -> (xor_text, sat_rendered)
        | `Unsat -> (unsat_text, unsat_rendered)
        | `Both ->
            if Random.State.bool st then (xor_text, sat_rendered)
            else (unsat_text, unsat_rendered)
      in
      match op (split_lines rendered) st with
      | None -> Alcotest.failf "mutant %d (%s): operator found no target line" i name
      | Some lines ->
          let mutant = join_lines lines in
          if String.equal mutant rendered then
            Alcotest.failf "mutant %d (%s): mutation was the identity" i name;
          let code = certcheck_on ~instance_text ~cert_text:mutant in
          if code = 0 then Alcotest.failf "mutant %d (%s) was accepted" i name
          else incr rejected)
    picks;
  check_int "all 100 mutants rejected" 100 !rejected

let () =
  Alcotest.run "cert"
    [
      ( "emission",
        [
          Alcotest.test_case "fingerprint" `Quick test_fingerprint;
          Alcotest.test_case "SAT roundtrip" `Quick test_sat_roundtrip;
          Alcotest.test_case "UNSAT roundtrip" `Quick test_unsat_roundtrip;
          Alcotest.test_case "uncertified marker" `Quick test_uncertified;
        ] );
      ( "checking",
        [
          Alcotest.test_case "wrong instance" `Quick test_wrong_instance;
          Alcotest.test_case "inconsistent marker" `Quick test_inconsistent_marker;
          Alcotest.test_case "parse negatives" `Quick test_parse_negatives;
        ] );
      ("mutation", [ Alcotest.test_case "100 seeded mutants" `Quick test_mutations ]);
    ]
