(* idq: solve a DQDIMACS file with the instantiation-based baseline.

   Exit codes (same convention as hqs_cli):
     10        SAT
     20        UNSAT
     2         usage error / invalid input (incl. command-line errors)
     1         internal error (uncaught exception)
     124       wall-clock timeout            ("s cnf TIMEOUT")
     125       memory budget exhausted       ("s cnf MEMOUT")
     128+sig   aborted by SIGINT (130) / SIGTERM (143), after printing
               "c aborted (signal ...)" *)

open Cmdliner

let install_signal_handlers () =
  let handle name code signo =
    try
      Sys.set_signal signo
        (Sys.Signal_handle
           (fun _ ->
             Printf.printf "c aborted (signal %s)\n%!" name;
             exit code))
    with Invalid_argument _ | Sys_error _ -> ()
  in
  handle "SIGINT" 130 Sys.sigint;
  handle "SIGTERM" 143 Sys.sigterm

let solve file timeout mem_limit node_limit show_stats =
  install_signal_handlers ();
  let pcnf =
    try Dqbf.Pcnf.parse_file file
    with Failure msg | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  (match Dqbf.Pcnf.validate pcnf with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "invalid input: %s\n" msg;
      exit 2);
  let budget =
    Hqs_util.Budget.with_mem_limit_mb
      (match timeout with
      | None -> Hqs_util.Budget.unlimited
      | Some s -> Hqs_util.Budget.of_seconds s)
      mem_limit
  in
  match Idq.solve_pcnf ~budget ?node_limit pcnf with
  | answer, stats ->
      if show_stats then
        Printf.eprintf "c rounds=%d ground-vars=%d instance-nodes=%d total=%.3fs\n"
          stats.Idq.rounds stats.Idq.ground_vars stats.Idq.instance_nodes stats.Idq.total_time;
      if answer then begin
        print_endline "s cnf SAT";
        exit 10
      end
      else begin
        print_endline "s cnf UNSAT";
        exit 20
      end
  | exception Hqs_util.Budget.Timeout ->
      print_endline "s cnf TIMEOUT";
      exit 124
  | exception Hqs_util.Budget.Out_of_memory_budget ->
      print_endline "s cnf MEMOUT";
      exit 125

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DQDIMACS input")

let timeout =
  Arg.(value & opt (some float) None & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"wall-clock limit")

let mem_limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-limit" ] ~docv:"MB"
        ~doc:"heap ceiling in megabytes (sampled from the OCaml GC; exceeding it is a memout)")

let node_limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"N" ~doc:"ground-instance AIG node budget")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"print statistics to stderr")

let cmd =
  let doc = "instantiation-based DQBF solving (iDQ-style baseline)" in
  Cmd.v (Cmd.info "idq" ~doc) Term.(const solve $ file $ timeout $ mem_limit $ node_limit $ stats)

(* cmdliner's own exit codes (124/125) collide with the timeout/memout
   convention above, so map evaluation outcomes explicitly *)
let () =
  match Cmd.eval_value cmd with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1
