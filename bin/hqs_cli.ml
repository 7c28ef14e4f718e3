(* hqs: solve a DQDIMACS file with the elimination-based solver.

   Exit codes (SAT-competition convention for verdicts, split abort
   codes so a harness can tell the failure modes apart):
     10        SAT
     20        UNSAT
     2         usage error / invalid input (incl. command-line errors)
     1         internal error (uncaught exception)
     3         soundness-check violation     ("s cnf ERROR"; an invariant
               audit armed with --check tripped)
     124       wall-clock timeout            ("s cnf TIMEOUT")
     125       memory exhausted              ("s cnf MEMOUT"; AIG node
               limit, --mem-limit heap governor, or the OCaml heap
               itself running out)
     128+sig   aborted by SIGINT (130) / SIGTERM (143), after printing
               "c aborted (signal ...)"
   With --stats, the stats line is printed on the verdict, TIMEOUT and
   MEMOUT exits alike. *)

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

(* a switch's value from its flag, else [default]; a malformed value is
   a usage error *)
let resolve ~flag ~expected of_string ~default given =
  match given with
  | None -> default
  | Some s -> (
      match of_string s with
      | Some v -> v
      | None ->
          Printf.eprintf "error: %s %s: expected %s\n" flag s expected;
          exit 2)

(* the library's constant default config with the three switches every
   command shares applied: --check, --dep-scheme (default [scheme]) and
   --inproc *)
let solver_config ?(scheme = Analysis.Scheme.default) ~check ~dep_scheme ~inproc () =
  let d = Hqs.default_config in
  {
    d with
    Hqs.check_level =
      resolve ~flag:"--check" ~expected:"off, cheap or full" Check.level_of_string
        ~default:d.Hqs.check_level check;
    dep_scheme =
      resolve ~flag:"--dep-scheme" ~expected:"trivial or rp" Analysis.Scheme.of_string
        ~default:scheme dep_scheme;
    preprocess =
      {
        d.Hqs.preprocess with
        inproc =
          resolve ~flag:"--inproc" ~expected:"off or on" Inproc.mode_of_string
            ~default:d.Hqs.preprocess.inproc inproc;
      };
  }

(* stop tracing and write the Chrome trace, reported on stderr *)
let write_trace path =
  Obs.Trace.stop ();
  match Obs.Trace.write_chrome_json path with
  | () ->
      Printf.eprintf "c trace: %d events -> %s%s%s\n%!"
        (List.length (Obs.Trace.events ()))
        path
        (let d = Obs.Trace.dropped () in
         if d > 0 then Printf.sprintf " (%d dropped)" d else "")
        (if Obs.Trace.truncated () then " (truncated worker spans repaired)" else "")
  | exception Sys_error msg -> Printf.eprintf "c trace write failed: %s\n%!" msg

(* parse and validate one input file; exit 2 on either failure *)
let load_pcnf file =
  let pcnf =
    try Dqbf.Pcnf.parse_file file
    with Failure msg | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  match Dqbf.Pcnf.validate pcnf with
  | Ok () -> pcnf
  | Error msg ->
      Printf.eprintf "invalid input %s: %s\n" file msg;
      exit 2

let solve file timeout mem_limit node_limit no_preprocess no_unitpure no_maxsat no_thm2
    expand_all check dep_scheme inproc certify_path show_model show_stats trace_file
    show_metrics =
  install_signal_handlers ();
  let base = solver_config ~check ~dep_scheme ~inproc () in
  let pcnf = load_pcnf file in
  let instance_text =
    Option.map
      (fun _ ->
        try In_channel.with_open_bin file In_channel.input_all
        with Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2)
      certify_path
  in
  let config =
    {
      base with
      Hqs.preprocess = (if no_preprocess then Dqbf.Preprocess.off else base.Hqs.preprocess);
      use_unitpure = not no_unitpure;
      use_maxsat = not no_maxsat;
      use_thm2 = not no_thm2;
      mode = (if expand_all then Hqs.Expand_all else Hqs.Elimination);
      node_limit;
    }
  in
  let budget =
    Hqs_util.Budget.with_mem_limit_mb
      (match timeout with
      | None -> Hqs_util.Budget.unlimited
      | Some s -> Hqs_util.Budget.of_seconds s)
      mem_limit
  in
  if Option.is_some trace_file then Obs.Trace.start ();
  (* emit the observability artifacts on every exit path — a timeout or
     memout trace is exactly the one worth looking at *)
  let finish_obs () =
    (match trace_file with
    | None -> ()
    | Some path ->
        write_trace path;
        if show_stats then prerr_string (Obs.Trace.flame_summary ()));
    if show_metrics then
      List.iter
        (fun (name, v) -> Printf.eprintf "c metric %s %g\n" name v)
        (Obs.Metrics.to_assoc (Obs.Metrics.snapshot ()))
  in
  (* a certificate that fails its own Post_certify audit is treated like
     a crash: re-solve once with checks escalated to Full, then give up
     with exit 3. The solve is deterministic and escalation idempotent,
     so a third attempt would repeat the second. *)
  let rec attempt ~escalated cfg =
    match Hqs.run ~config:cfg ~budget ~model:show_model ?certify:instance_text pcnf with
    | r -> r
    | exception Check.Violation ({ Check.stage = Check.Post_certify; _ } as v) ->
        Format.eprintf "c certificate audit failed%s: %a@."
          (if escalated then " (escalated re-solve)" else "")
          Check.pp_violation v;
        if escalated then begin
          finish_obs ();
          print_endline "s cnf ERROR";
          exit 3
        end
        else attempt ~escalated:true (Hqs.escalated_config cfg)
    | exception Check.Violation v ->
        finish_obs ();
        Format.printf "c check violation: %a@." Check.pp_violation v;
        print_endline "s cnf ERROR";
        exit 3
  in
  let r = attempt ~escalated:false config in
  (match (certify_path, r.Hqs.cert) with
  | Some path, Some cert -> (
      match Cert.write_file path cert with
      | () -> Printf.printf "c certificate: %s (%s)\n" path (Cert.status cert)
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write certificate: %s\n" msg;
          exit 2)
  | _ -> ());
  (match r.Hqs.model with
  | Some model when show_model ->
      (* print each Skolem function as a truth table over its deps *)
      List.iter
        (fun (y, deps) ->
          Printf.printf "v %d :" (y + 1);
          let k = List.length deps in
          if k <= 6 then
            for bits = 0 to (1 lsl k) - 1 do
              let env v =
                match List.find_index (fun d -> d = v) deps with
                | Some i -> bits land (1 lsl i) <> 0
                | None -> false
              in
              Printf.printf " %d" (if Dqbf.Skolem.eval model y env then 1 else 0)
            done
          else Printf.printf " <%d-input function>" k;
          print_newline ())
        pcnf.Dqbf.Pcnf.exists;
      (* independent certificate check *)
      (match Dqbf.Skolem.verify (Dqbf.Pcnf.to_formula pcnf) model with
      | Ok () -> print_endline "c model verified"
      | Error e -> Format.printf "c MODEL REJECTED: %a@." Dqbf.Skolem.pp_failure e)
  | _ -> ());
  let verdict = match r.Hqs.outcome with Hqs.Verdict v -> Some v | _ -> None in
  if show_stats then Format.eprintf "c %a@." (Hqs.pp_stats ~config ~verdict) r.Hqs.stats;
  finish_obs ();
  let line, code =
    match r.Hqs.outcome with
    | Hqs.Verdict Hqs.Sat -> ("SAT", 10)
    | Hqs.Verdict Hqs.Unsat -> ("UNSAT", 20)
    | Hqs.Timeout -> ("TIMEOUT", 124)
    | Hqs.Memout -> ("MEMOUT", 125)
  in
  print_endline ("s cnf " ^ line);
  exit code

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DQDIMACS input")

let timeout =
  Arg.(value & opt (some float) None & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"wall-clock limit")

let mem_limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-limit" ] ~docv:"MB"
        ~doc:
          "heap ceiling in megabytes for each solve, sampled from the OCaml GC; exceeding it \
           is a memout. A forked sweep or serve worker counts the heap it inherited from its \
           parent, such as the sweep's parsed inputs. For a kernel cap on a whole run, use \
           the shell's $(b,ulimit -v)")

let node_limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"N" ~doc:"AIG node budget (memout emulation)")

let check =
  Arg.(
    value
    & opt (some string) None
    & info [ "check" ] ~docv:"LEVEL"
        ~doc:
          "soundness-auditor depth at every stage boundary: off, cheap (prefix invariants) or \
           full (deep AIG audit + Skolem certification)")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "record hierarchical spans of the solve pipeline and write them as Chrome trace_event \
           JSON (open in chrome://tracing or Perfetto). Tracing is off by default and costs one \
           branch per span when disabled")

let dep_scheme =
  Arg.(
    value
    & opt (some string) None
    & info [ "dep-scheme" ] ~docv:"SCHEME"
        ~doc:
          "static dependency scheme applied to the prefix before solving: trivial (keep the \
           prefix as written; the default when solving) or rp (resolution-path pruning; the \
           default of $(b,hqs analyze))")

let inproc =
  Arg.(
    value
    & opt (some string) None
    & info [ "inproc" ] ~docv:"MODE"
        ~doc:
          "CNF inprocessing engine run between parsing and AIG construction: off (no CNF \
           rule; gate detection and AIG build only) or on (unit propagation, universal \
           reduction, BIG/SCC equivalence substitution, subsumption and self-subsumption; \
           the default)")

let certify_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "certify" ] ~docv:"FILE"
        ~doc:
          "materialize an externally checkable certificate artifact at $(i,FILE): a \
           Skolem-AIG on SAT, a universal-expansion refutation on small UNSAT instances, an \
           explicit UNCERTIFIED marker past the expansion cap. Verify with \
           $(b,certcheck INSTANCE FILE), which shares no solver code. A certificate failing \
           its own audit triggers one re-solve with checks escalated to full; if that \
           certificate fails its audit too, the exit is 3")

let flag names doc = Arg.(value & flag & info names ~doc)

(* -------------------------------------------------------- sweep command *)

(* hqs sweep: benchmark sweep over DQDIMACS files. Each (file, solver)
   task runs in a forked Exec.Pool worker under a wall backstop; see
   Exec.Pool for the crash taxonomy and Harness.Sweep for the backstop
   and the journal.
   Exit codes:
     0  sweep completed; every task solved, timed out or memed out
     1  internal error (uncaught exception)
     2  usage error / unreadable or invalid input file
     3  sweep completed, but with quarantined crashes or a soundness
        disagreement between HQS and iDQ — the report names them *)

let family_of_path file =
  match Filename.basename (Filename.dirname file) with
  | "." | ".." | "/" | "" -> "files"
  | d -> d

let sweep files jobs timeout node_limit retries journal resume mem_limit chaos_kill check
    dep_scheme inproc certify_dir trace =
  install_signal_handlers ();
  (* resolved here, like solve and serve; the workers inherit it through
     the fork *)
  let hqs_config = solver_config ~check ~dep_scheme ~inproc () in
  List.iter
    (fun (flag, n) ->
      if n < 1 then begin
        Printf.eprintf "error: %s %d: expected a count of at least 1\n" flag n;
        exit 2
      end)
    [ ("--jobs", jobs); ("--retries", retries) ];
  if files = [] then begin
    Printf.eprintf "error: no input files\n";
    exit 2
  end;
  (match certify_dir with
  | None -> ()
  | Some dir -> (
      try Unix.mkdir dir 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | Unix.Unix_error (err, _, _) ->
          Printf.eprintf "error: mkdir %s: %s\n" dir (Unix.error_message err);
          exit 2));
  if Option.is_some trace then Obs.Trace.start ();
  let items =
    List.map
      (fun file ->
        {
          Harness.Sweep.id = Filename.remove_extension (Filename.basename file);
          family = family_of_path file;
          pcnf = load_pcnf file;
        })
      files
  in
  (let seen = Hashtbl.create 16 in
   List.iter
     (fun (it : Harness.Sweep.item) ->
       if Hashtbl.mem seen it.Harness.Sweep.id then begin
         Printf.eprintf "error: duplicate instance id %s (same base name twice?)\n"
           it.Harness.Sweep.id;
         exit 2
       end;
       Hashtbl.replace seen it.Harness.Sweep.id ())
     items);
  (* arm the worker-kill point for every attempt of one task, so a
     quarantine is reproducible from the command line *)
  let chaos =
    Hqs_util.Chaos.arm
      (match chaos_kill with
      | None -> []
      | Some task ->
          List.init retries (fun i -> Hqs_util.Chaos.worker_kill_point ~task ~attempt:(i + 1)))
  in
  let config =
    {
      (Harness.Sweep.default_config ~timeout ~node_limit) with
      Harness.Sweep.hqs_config;
      Harness.Sweep.certify_dir;
      Harness.Sweep.mem_limit_mb = mem_limit;
      Harness.Sweep.exec = { Exec.Pool.jobs; max_attempts = retries; chaos };
    }
  in
  let n = 2 * List.length items in
  let count = ref 0 in
  let on_progress (p : Harness.Sweep.progress) =
    incr count;
    let show = function
      | Harness.Runner.Solved (true, t) -> Printf.sprintf "SAT %.2fs" t
      | Harness.Runner.Solved (false, t) -> Printf.sprintf "UNSAT %.2fs" t
      | Harness.Runner.Timeout _ -> "TO"
      | Harness.Runner.Memout _ -> "MO"
      | Harness.Runner.Crash _ -> "CRASH"
    in
    Printf.eprintf "c [%3d/%d] %-32s %-12s%s\n%!" !count n p.Harness.Sweep.task
      (show p.Harness.Sweep.outcome)
      (if p.Harness.Sweep.from_journal then " (journal)"
       else if p.Harness.Sweep.attempts > 1 then
         Printf.sprintf " (%d attempts)" p.Harness.Sweep.attempts
       else "")
  in
  let rep = Harness.Sweep.run ~config ?journal ?resume ~on_progress items in
  Printf.eprintf "c sweep: %d tasks executed, %d from journal%s\n%!"
    rep.Harness.Sweep.executed rep.Harness.Sweep.journaled
    (if rep.Harness.Sweep.journal_dropped > 0 then
       Printf.sprintf ", %d unusable journal lines dropped" rep.Harness.Sweep.journal_dropped
     else "");
  let results = rep.Harness.Sweep.results in
  prerr_string (Harness.Report.table1 results);
  prerr_string (Harness.Report.fig4 ~timeout results);
  prerr_string (Harness.Report.headline results);
  print_string (Harness.Report.csv results);
  Option.iter write_trace trace;
  let bad r =
    (match r.Harness.Runner.soundness with
    | Harness.Runner.Consistent -> false
    | Harness.Runner.Disagreement _ -> true)
    ||
    match (r.Harness.Runner.hqs, r.Harness.Runner.idq) with
    | Harness.Runner.Crash _, _ | _, Harness.Runner.Crash _ -> true
    | _ -> false
  in
  exit (if List.exists bad results then 3 else 0)

let sweep_files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"DQDIMACS inputs")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc:"concurrent worker processes")

let sweep_timeout =
  Arg.(value & opt float 5.0 & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"per-solve wall budget")

let sweep_node_limit =
  Arg.(
    value
    & opt int 400_000
    & info [ "node-limit" ] ~docv:"N" ~doc:"AIG node budget (memout emulation)")

let retries =
  Arg.(
    value
    & opt int 3
    & info [ "retries" ] ~docv:"K"
        ~doc:"worker spawns per task before it is quarantined as CRASH")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"append every completed task to this crash-safe JSONL journal (fsync per line)")

let resume =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "skip tasks that already have a checksum-valid line in this journal; torn trailing \
           lines from a killed run are detected and re-executed. May name the same file as \
           $(b,--journal)")

let chaos_kill =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos-kill" ] ~docv:"TASK"
        ~doc:
          "arm a deterministic SIGKILL of every attempt of this task (e.g. \
           $(i,instance/hqs)) — fault-injection for the crash/quarantine path")

let sweep_cmd =
  let doc = "supervised process-isolated benchmark sweep over DQDIMACS files" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs HQS and iDQ on every $(i,FILE), each (file, solver) task in its own forked \
         worker process under the $(b,--timeout) and $(b,--mem-limit) budgets; a worker \
         still running at twice $(b,--timeout) plus 10 s is killed and reported as TO. Worker \
         deaths the result protocol cannot explain are retried at once and, after \
         $(b,--retries) attempts, quarantined as CRASH rows instead of aborting the sweep. The \
         per-instance CSV goes to stdout; progress, Table I, the Fig. 4 scatter and the \
         headline summary go to stderr.";
      `S "EXIT STATUS";
      `P "0 on a clean sweep; 2 on usage or input errors; 3 when the sweep finished but \
          contains CRASH rows or an HQS/iDQ verdict disagreement; 1 on internal errors.";
    ]
  in
  Cmd.v
    (Cmd.info "sweep" ~doc ~man)
    Term.(
      const sweep $ sweep_files $ jobs $ sweep_timeout $ sweep_node_limit $ retries $ journal
      $ resume $ mem_limit $ chaos_kill $ check $ dep_scheme $ inproc
      $ Arg.(
          value
          & opt (some string) None
          & info [ "certify-dir" ] ~docv:"DIR"
              ~doc:
                "run every HQS task through the certifying entry point and drop a \
                 self-contained (instance, certificate) artifact pair per task under \
                 $(i,DIR) (created if missing); the journal and the CSV's trailing \
                 $(b,cert) column carry the artifact paths, verifiable offline with \
                 $(b,certcheck)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "write one merged multi-process Chrome trace: supervisor per-task spans on \
                 the main pid plus every worker's span buffer (shipped back over the result \
                 pipe) under its own pid row, linked by per-task trace ids. Workers killed \
                 mid-span are repaired and flagged truncated"))

(* ------------------------------------------------------ analyze command *)

(* hqs analyze: run the static dependency-scheme analyzer and the CNF
   inprocessing engine and print both reports, without solving. Exit
   codes: 0 on a successful analysis (regardless of what it pruned or
   simplified), 2 on usage/input errors, 3 when --check full refutes a
   pruned edge or an inprocessing witness fails its audit. *)

(* "c inproc ..." detail lines plus one machine-greppable "s inproc ..."
   summary, mirroring the "s analysis" convention *)
let print_inproc_report mode (outcome : Inproc.outcome) =
  let mname = Inproc.mode_name mode in
  match outcome with
  | Inproc.Unsat ->
      Printf.printf "c inproc mode=%s: refuted during simplification\n" mname;
      Printf.printf "s inproc mode=%s UNSAT\n" mname
  | Inproc.Simplified res ->
      let s = res.Inproc.stats in
      Printf.printf "c inproc mode=%s rounds=%d\n" mname s.Inproc.rounds;
      Printf.printf
        "c inproc units=%d reduced-lits=%d merges=%d subsumed=%d strengthened=%d\n"
        s.Inproc.units s.Inproc.reduced_lits s.Inproc.scc_merges s.Inproc.subsumed
        s.Inproc.strengthened;
      Printf.printf "c inproc clauses %d -> %d, literals %d -> %d, variables %d -> %d\n"
        s.Inproc.clauses_before s.Inproc.clauses_after s.Inproc.lits_before
        s.Inproc.lits_after s.Inproc.vars_before s.Inproc.vars_after;
      Printf.printf
        "s inproc mode=%s rounds=%d units=%d merges=%d subsumed=%d strengthened=%d \
         clauses=%d->%d lits=%d->%d\n"
        mname s.Inproc.rounds s.Inproc.units s.Inproc.scc_merges s.Inproc.subsumed
        s.Inproc.strengthened s.Inproc.clauses_before s.Inproc.clauses_after
        s.Inproc.lits_before s.Inproc.lits_after

let analyze file dep_scheme check inproc =
  let { Hqs.check_level; dep_scheme = scheme; preprocess; _ } =
    solver_config ~scheme:Analysis.Scheme.Rp ~check ~dep_scheme ~inproc ()
  in
  let mode = preprocess.Dqbf.Preprocess.inproc in
  let pcnf = load_pcnf file in
  let _refined, report = Analysis.Rp.analyze ~scheme pcnf in
  (match
     Check.audit_dep_pruning ~level:check_level pcnf ~pruned:report.Analysis.Rp.pruned
   with
  | () -> Format.printf "%a@?" Analysis.Rp.pp_report report
  | exception Check.Violation v ->
      Format.printf "%a@?" Analysis.Rp.pp_report report;
      Format.printf "c check violation: %a@." Check.pp_violation v;
      print_endline "s analysis ERROR";
      exit 3);
  if mode <> Inproc.Off then begin
    let outcome = Dqbf.Preprocess.run_inproc ~mode pcnf in
    match Check.audit_inproc ~level:check_level pcnf outcome with
    | () -> print_inproc_report mode outcome
    | exception Check.Violation v ->
        print_inproc_report mode outcome;
        Format.printf "c check violation: %a@." Check.pp_violation v;
        print_endline "s inproc ERROR";
        exit 3
  end;
  exit 0

let analyze_cmd =
  let doc = "print the static dependency-scheme refinement report for a DQDIMACS file" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the resolution-path dependency analyzer (lib/analysis) on $(i,FILE) without \
         solving it: one $(b,v) line per existential shows the declared and refined \
         dependency sets, the $(b,c analysis) header lines count pruned edges and \
         incomparable pairs, and the final $(b,s analysis) line is machine-greppable. Unless \
         $(b,--inproc off), the CNF inprocessing engine (lib/inproc) is then run on the \
         instance and its rule counters and clause/literal/variable deltas are reported as \
         $(b,c inproc) lines with a machine-greppable $(b,s inproc) summary. With \
         $(b,--check full), a sample of pruned edges is validated semantically against the \
         reference expansion solver and every inprocessing witness is audited (exit 3 on \
         refutation).";
    ]
  in
  Cmd.v
    (Cmd.info "analyze" ~doc ~man)
    Term.(const analyze $ file $ dep_scheme $ check $ inproc)

(* -------------------------------------------------------- serve command *)

(* hqs serve: persistent solver daemon on a Unix-domain socket; see
   Serve.Daemon for the robustness contract. Exits 0 after a SIGTERM /
   SIGINT drain, 2 on usage errors (bad bounds, unbindable socket). *)

let serve socket workers queue_cap timeout max_timeout kill_grace retries mem_limit node_limit
    cache check audit_period trace event_log chaos_kill certify chaos_cert dep_scheme inproc =
  (* no install_signal_handlers: SIGTERM/SIGINT mean "drain", not "abort" *)
  let solver = { (solver_config ~check ~dep_scheme ~inproc ()) with Hqs.node_limit } in
  let chaos =
    Hqs_util.Chaos.arm
      ((* kill the first dispatch of one job id — the retry then
          succeeds, which is the structured-reply-after-crash path *)
       (match chaos_kill with
       | None -> []
       | Some jid ->
           [ Hqs_util.Chaos.worker_kill_point ~task:(Serve.Daemon.task_id ~jid) ~attempt:1 ])
      @
      (* same shape for the certificate recovery loop: poison the first
         dispatch's artifact, so the escalated re-solve then verifies *)
      match chaos_cert with
      | None -> []
      | Some jid -> [ Serve.Daemon.cert_point ~jid ~attempt:1 ])
  in
  let config =
    {
      (Serve.Daemon.default ~socket_path:socket) with
      Serve.Daemon.workers;
      queue_cap;
      default_timeout_s = timeout;
      max_timeout_s = max_timeout;
      kill_grace_s = kill_grace;
      max_attempts = retries;
      mem_limit_mb = mem_limit;
      chaos;
      audit_period;
      cache_path = cache;
      trace_path = trace;
      event_log;
      solver;
      certify;
    }
  in
  Printf.eprintf "c serve: listening on %s (%d workers, queue cap %d)\n%!" socket workers
    queue_cap;
  match Serve.Daemon.run config with
  | () ->
      Printf.eprintf "c serve: drained, exiting\n%!";
      exit 0
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | exception Unix.Unix_error (err, fn, arg) ->
      Printf.eprintf "error: %s(%s): %s\n" fn arg (Unix.error_message err);
      exit 2

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon")

let serve_cmd =
  let doc = "persistent solver daemon with a worker pool and a canonical-form verdict cache" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens on a Unix-domain socket and solves each DQDIMACS request in its own forked \
         child, at most $(b,--workers) at a time, under per-request wall/heap budgets. A \
         crashed solve is retried at once, ahead of newly admitted requests, up to \
         $(b,--retries) dispatches; clients always receive a structured reply (verdict, \
         timeout, memout, crash, overloaded, draining) — never a hung connection. Verdicts are memoized under a \
         canonical form of the instance (variable renaming + clause reordering invariant); \
         with $(b,--check full), every $(b,--audit-period)-th cache hit is re-solved and \
         compared. SIGTERM drains gracefully: in-flight requests finish, new ones are \
         refused, exit code 0.";
      `S "EXIT STATUS";
      `P "0 after a graceful drain; 2 on usage errors; 1 on internal errors.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const serve $ socket_arg
      $ Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N" ~doc:"concurrent forked solves (pool size)")
      $ Arg.(
          value
          & opt int 16
          & info [ "queue-cap" ] ~docv:"N"
              ~doc:"admission queue bound; beyond it requests are shed with `overloaded'")
      $ Arg.(
          value
          & opt float 60.0
          & info [ "timeout"; "t" ] ~docv:"SECONDS"
              ~doc:"default per-request wall budget (clients may ask for less)")
      $ Arg.(
          value
          & opt float 600.0
          & info [ "max-timeout" ] ~docv:"SECONDS" ~doc:"ceiling on client-requested budgets")
      $ Arg.(
          value
          & opt float 2.0
          & info [ "kill-grace" ] ~docv:"SECONDS"
              ~doc:"SIGKILL a solve this long past its request deadline")
      $ Arg.(
          value
          & opt int 3
          & info [ "retries" ] ~docv:"K"
              ~doc:"dispatches per request before a structured `crash' reply")
      $ mem_limit $ node_limit
      $ Arg.(
          value
          & opt (some string) None
          & info [ "cache" ] ~docv:"FILE"
              ~doc:
                "persist the verdict cache to this checksummed append-only journal and \
                 preload it on start")
      $ check
      $ Arg.(
          value
          & opt int 4
          & info [ "audit-period" ] ~docv:"N"
              ~doc:
                "with --check full, re-solve every Nth cache hit and compare verdicts (0 \
                 disables auditing)")
      $ trace
      $ Arg.(
          value
          & opt (some string) None
          & info [ "event-log" ] ~docv:"FILE"
              ~doc:
                "append one checksummed JSONL line per lifecycle event (admissions, sheds, \
                 crashes, retries, quarantines, timeouts, cache audits, drain) \
                 with per-request trace ids; the file is size-rotated to $(i,FILE).1 at 1 \
                 MiB")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chaos-kill" ] ~docv:"JID"
              ~doc:
                "arm a deterministic SIGKILL of the first dispatch of this job id (job ids \
                 count from 1 in admission order)")
      $ Arg.(
          value
          & flag
          & info [ "certify" ]
              ~doc:
                "solve through the certifying entry point and audit every certificate \
                 artifact in the worker; an audit failure tombstones the cache entry, \
                 retries the job with checks escalated to full, and quarantines it past \
                 $(b,--retries) attempts. Clients asking with $(b,hqs query --certify) \
                 receive the verified artifact inline")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chaos-cert" ] ~docv:"JID"
              ~doc:
                "arm a deterministic corruption of this job id's certificate on its first \
                 dispatch, before the in-worker audit — the fault-injection drill for the \
                 audit-failure recovery loop (requires $(b,--certify))")
      $ dep_scheme $ inproc)

(* -------------------------------------------------------- query command *)

(* hqs query: one request against a running daemon. Exit codes:
     10/20     SAT/UNSAT (cached or fresh)
     124/125   structured timeout / memout reply
     5         request failed after worker crashes
     75        daemon overloaded or draining (EX_TEMPFAIL: retry later)
     3         cache audit failure ("s cnf ERROR")
     2         usage error, invalid instance, or daemon unreachable
     0         --ping / --stats *)

(* one introspection snapshot, as `hqs top` prints it *)
let render_health (h : Serve.Proto.health) =
  let m name =
    match List.assoc_opt name h.Serve.Proto.h_metrics with Some v -> v | None -> 0.
  in
  Printf.printf "c uptime %.1fs%s\n" h.Serve.Proto.uptime_s
    (if h.Serve.Proto.draining then "  DRAINING" else "");
  Printf.printf "c workers %d live, %d busy  queue_depth %d\n" h.Serve.Proto.live_workers
    h.Serve.Proto.in_flight h.Serve.Proto.h_queue_depth;
  Printf.printf "c states %s\n" (String.concat " " h.Serve.Proto.states);
  if h.Serve.Proto.lat_n > 0 then
    Printf.printf "c latency n=%d p50=%.3fs p95=%.3fs p99=%.3fs\n" h.Serve.Proto.lat_n
      h.Serve.Proto.lat_p50 h.Serve.Proto.lat_p95 h.Serve.Proto.lat_p99
  else print_endline "c latency n=0";
  Printf.printf "c requests %.0f  shed %.0f  timeouts %.0f\n" (m "serve.requests")
    (m "serve.shed") (m "serve.timeouts");
  Printf.printf "c crashes %.0f\n" (m "serve.worker_crashes");
  Printf.printf "c cache hits %.0f  misses %.0f  audits %.0f  audit_failures %.0f\n"
    (m "serve.cache_hits") (m "serve.cache_misses") (m "serve.cache_audits")
    (m "serve.cache_audit_failures");
  Printf.printf "c cert audits %.0f  audit_failures %.0f\n%!" (m "serve.cert_audits")
    (m "serve.cert_audit_failed")

let query socket file ping stats timeout sleep certify =
  install_signal_handlers ();
  let request =
    if ping then Serve.Proto.Ping
    else if stats then Serve.Proto.Health
    else
      match file with
      | Some f -> (
          match In_channel.with_open_bin f In_channel.input_all with
          | text ->
              Serve.Proto.Solve
                { text; timeout_s = timeout; sleep_s = sleep; want_cert = Option.is_some certify }
          | exception Sys_error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 2)
      | None ->
          Printf.eprintf "error: need a FILE argument, --ping or --stats\n";
          exit 2
  in
  match Serve.Client.roundtrip ~socket request with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | Ok reply -> (
      match reply with
      | Serve.Proto.Pong ->
          print_endline "c pong";
          exit 0
      | Serve.Proto.Health_reply h ->
          Printf.printf "c workers %d\nc queue_depth %d\n" h.Serve.Proto.live_workers
            h.Serve.Proto.h_queue_depth;
          List.iter
            (fun (name, v) -> Printf.printf "c metric %s %g\n" name v)
            h.Serve.Proto.h_metrics;
          exit 0
      | Serve.Proto.Verdict { sat; elapsed_s; cached; audited; cert } ->
          Printf.printf "c elapsed %.3fs%s%s\n" elapsed_s
            (if cached then " (cached)" else "")
            (if audited then " (audited)" else "");
          (match (certify, cert) with
          | Some path, Some blob -> (
              match
                Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc blob)
              with
              | () -> Printf.printf "c certificate: %s\n" path
              | exception Sys_error msg ->
                  Printf.eprintf "error: cannot write certificate: %s\n" msg;
                  exit 2)
          | Some _, None ->
              (* not an error: the cache stores verdicts, not artifacts,
                 and a non-certifying daemon ignores the request flag *)
              Printf.printf "c no certificate in reply%s\n"
                (if cached then " (cache hit)" else " (daemon not certifying)")
          | None, _ -> ());
          print_endline (if sat then "s cnf SAT" else "s cnf UNSAT");
          exit (if sat then 10 else 20)
      | Serve.Proto.Failed { failure = Serve.Proto.F_timeout; elapsed_s; detail } ->
          Printf.eprintf "c timeout after %.3fs: %s\n" elapsed_s detail;
          print_endline "s cnf TIMEOUT";
          exit 124
      | Serve.Proto.Failed { failure = Serve.Proto.F_memout; elapsed_s; detail } ->
          Printf.eprintf "c memout after %.3fs: %s\n" elapsed_s detail;
          print_endline "s cnf MEMOUT";
          exit 125
      | Serve.Proto.Failed { failure = Serve.Proto.F_crash; detail; _ } ->
          Printf.eprintf "c crash: %s\n" detail;
          print_endline "s cnf ERROR";
          exit 5
      | Serve.Proto.Overloaded { queue_depth } ->
          Printf.eprintf "c overloaded (queue depth %d), retry later\n" queue_depth;
          exit 75
      | Serve.Proto.Draining ->
          Printf.eprintf "c daemon is draining, retry elsewhere\n";
          exit 75
      | Serve.Proto.Invalid msg ->
          Printf.eprintf "invalid request: %s\n" msg;
          exit 2
      | Serve.Proto.Audit_failed { cached_sat; fresh_sat } ->
          Printf.eprintf "c cache audit failure: memoized %s, fresh solve %s\n"
            (if cached_sat then "SAT" else "UNSAT")
            (if fresh_sat then "SAT" else "UNSAT");
          print_endline "s cnf ERROR";
          exit 3)

let query_cmd =
  let doc = "send one request to a running hqs serve daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Submits the DQDIMACS $(i,FILE) to the daemon at $(b,--socket) and prints the \
         structured reply with the usual verdict exit codes; $(b,--ping) and $(b,--stats) \
         probe liveness and the serve.* metric registry instead. The rendered health \
         snapshot is $(b,hqs top --once).";
      `S "EXIT STATUS";
      `P
        "10 SAT; 20 UNSAT; 124 timeout; 125 memout; 5 crash; 75 overloaded or draining \
         (retry later); 3 cache audit failure; 2 usage error or daemon unreachable; 0 for \
         --ping/--stats.";
    ]
  in
  Cmd.v
    (Cmd.info "query" ~doc ~man)
    Term.(
      const query $ socket_arg
      $ Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DQDIMACS input")
      $ Arg.(value & flag & info [ "ping" ] ~doc:"liveness probe")
      $ Arg.(value & flag & info [ "stats" ] ~doc:"print worker/queue/metric state")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"per-request wall budget")
      $ Arg.(
          value
          & opt float 0.0
          & info [ "sleep" ] ~docv:"SECONDS"
              ~doc:
                "test hook: make the worker sleep this long (inside the solve budget) \
                 before solving — deterministic deadline and overload scenarios")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "certify" ] ~docv:"FILE"
              ~doc:
                "ask the daemon for the solve's certificate artifact and write it to \
                 $(i,FILE); only honored by a daemon running with $(b,--certify), and only \
                 on a fresh (non-cached) verdict — verify offline with $(b,certcheck)"))

(* ---------------------------------------------------------- top command *)

(* hqs top: refreshing live view of a running daemon, built on the
   `health` request. Exit codes: 0 (clean exit, incl. --once), 2 when
   the daemon is unreachable or replies out of protocol. *)

let top socket interval once =
  install_signal_handlers ();
  let rec loop () =
    (match Serve.Client.roundtrip ~socket Serve.Proto.Health with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Ok (Serve.Proto.Health_reply h) ->
        if not once then print_string "\027[2J\027[H";
        Printf.printf "c hqs top — %s\n" socket;
        render_health h
    | Ok _ ->
        Printf.eprintf "error: daemon sent an unexpected reply to a health request\n";
        exit 2);
    if once then exit 0
    else begin
      Unix.sleepf interval;
      loop ()
    end
  in
  loop ()

let top_cmd =
  let doc = "live introspection view of a running hqs serve daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Polls the daemon at $(b,--socket) with `health' requests and renders a refreshing \
         snapshot: pool slot states, queue depth, in-flight jobs, rolling request-latency \
         quantiles (p50/p95/p99 over the last 512 requests), and the shed / crash / cache \
         counters. $(b,--once) prints a single snapshot and exits — the scriptable \
         form used by CI.";
      `S "EXIT STATUS";
      `P "0 on clean exit; 2 when the daemon is unreachable.";
    ]
  in
  Cmd.v
    (Cmd.info "top" ~doc ~man)
    Term.(
      const top $ socket_arg
      $ Arg.(
          value
          & opt float 1.0
          & info [ "interval"; "n" ] ~docv:"SECONDS" ~doc:"refresh period")
      $ Arg.(value & flag & info [ "once" ] ~doc:"print one snapshot and exit"))

let solve_term =
  Term.(
    const solve $ file $ timeout $ mem_limit $ node_limit
    $ flag [ "no-preprocess" ] "disable CNF preprocessing"
    $ flag [ "no-unitpure" ] "disable unit/pure detection on the AIG"
    $ flag [ "no-maxsat" ] "use the greedy elimination set instead of MaxSAT"
    $ flag [ "no-thm2" ] "disable elimination of fully-dependent existentials"
    $ flag [ "expand-all" ] "eliminate every universal (ICCD'13 baseline)"
    $ check $ dep_scheme $ inproc $ certify_arg
    $ flag [ "model" ] "on SAT, print and verify Skolem functions"
    $ flag [ "stats" ] "print statistics to stderr (with --trace, also a flame summary)"
    $ trace
    $ flag [ "metrics" ] "print the metric registry (counters, gauges, histograms) to stderr")

let solve_cmd =
  let doc = "solve a DQBF by quantifier elimination (HQS, DATE 2015)" in
  Cmd.v (Cmd.info "hqs" ~doc) solve_term

(* `Cmd.group ~default` would swallow the FILE positional of the plain
   solve invocation as an unknown command name, so dispatch by hand:
   `hqs sweep ...` evaluates the sweep command with argv shifted past
   the subcommand token, anything else keeps the historical `hqs FILE`
   interface intact. *)
let subcommands =
  [
    ("sweep", sweep_cmd);
    ("analyze", analyze_cmd);
    ("serve", serve_cmd);
    ("query", query_cmd);
    ("top", top_cmd);
  ]

let () =
  let argv = Sys.argv in
  let sub =
    if Array.length argv < 2 then None
    else
      List.find_map
        (fun (name, cmd) -> if String.equal name argv.(1) then Some cmd else None)
        subcommands
  in
  let eval_result =
    match sub with
    | Some cmd ->
        let shifted =
          Array.append [| "hqs " ^ argv.(1) |] (Array.sub argv 2 (Array.length argv - 2))
        in
        Cmd.eval_value ~argv:shifted cmd
    | None -> Cmd.eval_value ~argv solve_cmd
  in
  (* cmdliner's own exit codes (124/125) collide with the timeout/memout
     convention above, so map evaluation outcomes explicitly *)
  match eval_result with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1
