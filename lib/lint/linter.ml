(* Repo-specific static analysis over the parsetree (compiler-libs).

   The rules encode this codebase's conventions, each of which guards a
   soundness property the auditor in [lib/check] can only catch at run
   time:
   - a catch-all exception handler can swallow [Budget.Timeout] or a
     [Check.Violation] and convert an abort into a wrong verdict;
   - polymorphic [compare]/[Hashtbl.hash] passed as first-class values
     silently fall back to structural comparison when a type gains a
     non-canonical field (the Bitset incident class);
   - [failwith] inside [lib/] escapes as an untyped [Failure] that callers
     cannot distinguish from a parser error (only the DIMACS-family
     parsers use it as their documented parse-error channel);
   - a missing [.mli] leaks mutable internals that the auditor assumes
     only the public API can touch;
   - a raw [Unix.openfile]/[Unix.pipe]/[Unix.socket] outside [lib/exec]
     creates file descriptors with none of the supervisor's close-on-exec
     and cleanup discipline (the fd-leak surface that poisons forked
     sweep workers);
   - a wall-clock read ([Unix.gettimeofday]/[Unix.time]) outside
     [lib/util] silently breaks budgets and trace timestamps under clock
     steps — solver paths must use the monotonic [Budget.now];
   - any other timestamp source ([Sys.time], the low-level [Mono.now],
     [Unix.clock_gettime]) inside [lib/] bypasses the one clock the Obs
     tracer uses, so spans recorded in a forked worker would no longer
     merge onto the supervisor's timebase;
   - a direct stdout write ([Printf.printf]/[print_endline]/...) in
     [lib/] outside [lib/harness] corrupts the machine-readable solver
     output (DIMACS verdict lines, CSV, JSON baselines) — reports must go
     through the harness or the Obs sinks;
   - a [Unix.fork] under [lib/] or [bin/] outside [lib/exec/pool.ml]
     grows a second forked-process executor next to the pool, without
     its fork-state reset, descriptor hygiene, wall-clock kill and crash
     classification.

   Diagnostics can be suppressed by a comment containing
   "lint: allow <rule-name>" on the offending line or the line above. *)

type rule =
  | Catch_all
  | Poly_compare
  | Obj_magic
  | Failwith_lib
  | Missing_mli
  | Raw_fd
  | Wall_clock
  | Mono_clock_span
  | No_stdout
  | Fork_site
  | Cert_isolation
  | Syntax

let rule_name = function
  | Catch_all -> "catch-all"
  | Poly_compare -> "poly-compare"
  | Obj_magic -> "obj-magic"
  | Failwith_lib -> "failwith-lib"
  | Missing_mli -> "missing-mli"
  | Raw_fd -> "raw-fd"
  | Wall_clock -> "wall-clock"
  | Mono_clock_span -> "mono-clock-span"
  | No_stdout -> "no-stdout"
  | Fork_site -> "fork-site"
  | Cert_isolation -> "cert-isolation"
  | Syntax -> "syntax"

let all_rules =
  [
    Catch_all; Poly_compare; Obj_magic; Failwith_lib; Missing_mli; Raw_fd; Wall_clock;
    Mono_clock_span; No_stdout; Fork_site; Cert_isolation; Syntax;
  ]

let rule_doc = function
  | Catch_all ->
      "catch-all exception handler ([try ... with _ ->] or [with e ->]): a bare handler \
       swallows Budget.Timeout and Check.Violation aborts and converts them into wrong \
       verdicts."
  | Poly_compare ->
      "polymorphic comparison: first-class ( = )/( <> ), any use of Stdlib.compare or \
       Hashtbl.hash. Structural comparison silently changes meaning when a type gains a \
       non-canonical field; pass a monomorphic function instead. Fully applied [a = b] is \
       ordinary OCaml and passes."
  | Obj_magic -> "Obj.magic defeats the type system."
  | Failwith_lib ->
      "failwith under lib/: escapes as an untyped Failure callers cannot distinguish from a \
       parse error. Raise a typed exception. The DIMACS-family parsers are allowlisted \
       (Failure is their documented parse-error channel)."
  | Missing_mli ->
      "a lib/ implementation without a sibling .mli leaks mutable internals the run-time \
       auditor assumes only the public API can touch."
  | Raw_fd ->
      "raw Unix.openfile/pipe/socket/socketpair/accept outside lib/exec or lib/serve: \
       descriptors opened elsewhere have none of the supervisor's close-on-exec and cleanup \
       discipline and leak into forked workers."
  | Wall_clock ->
      "Unix.gettimeofday/Unix.time outside lib/util: wall time breaks budgets and trace \
       timestamps under clock steps — use the monotonic Budget.now."
  | Mono_clock_span ->
      "non-canonical timestamp source (Sys.time, the low-level Mono.now, \
       Unix.clock_gettime) under lib/ outside lib/util: Obs span and event timestamps must \
       all come from Budget.now so traces from forked workers merge onto one timebase."
  | No_stdout ->
      "stdout write (Printf.printf, print_endline, ...) under lib/ outside lib/harness: \
       solver stdout is a machine-readable channel (verdict lines, CSV, JSON baselines)."
  | Fork_site ->
      "Unix.fork under lib/ or bin/ outside lib/exec/pool.ml: every forked child goes \
       through Exec.Pool, the one place that resets fork-inherited state, closes the parent's \
       descriptors, enforces the wall-clock kill and classifies the child's death."
  | Cert_isolation ->
      "a module-qualified reference, open or module alias rooted in any repo library inside \
       bin/certcheck.ml: the independent certificate verifier must share no code with the \
       solver it checks."
  | Syntax -> "the file does not parse (also covers unreadable files)."

type diag = { file : string; line : int; col : int; rule : rule; msg : string }

(* ------------------------------------------------- tool-neutral findings *)

(* [bin/lint] and [bin/deepcheck] share one diagnostic surface: the same
   human line format, the same one-line JSON document, the same
   suppression-comment convention — so downstream tooling (benchdiff-style
   consumers, editors) parses both with one reader. *)

type finding = { f_file : string; f_line : int; f_col : int; f_rule : string; f_msg : string }

let finding_of_diag d =
  { f_file = d.file; f_line = d.line; f_col = d.col; f_rule = rule_name d.rule; f_msg = d.msg }

type format = Human | Json

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.f_file f.f_line f.f_col f.f_rule f.f_msg

(* minimal JSON string escaping, compatible with [Obs.Json.parse] (which
   this library cannot depend on: linter must stay a leaf) *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_json ~tool findings =
  let item f =
    Printf.sprintf {|{"file":"%s","line":%d,"col":%d,"rule":"%s","msg":"%s"}|}
      (json_escape f.f_file) f.f_line f.f_col (json_escape f.f_rule) (json_escape f.f_msg)
  in
  Printf.sprintf {|{"tool":"%s","findings":[%s],"count":%d}|} (json_escape tool)
    (String.concat "," (List.map item findings))
    (List.length findings)

(* Human mode is byte-identical to the historical [bin/lint] output: one
   line per finding plus a trailing count line, and {e nothing} on a
   clean run. JSON mode always emits exactly one document, clean or not,
   so machine consumers never have to special-case an empty stream. *)
let print_findings ~tool format findings =
  match format with
  (* the renderer IS the tool's stdout channel — lint: allow no-stdout *)
  | Json -> print_endline (render_json ~tool findings)
  | Human ->
      if findings <> [] then begin
        List.iter (fun f -> Format.printf "%a@." pp_finding f) findings;
        Format.printf "%s: %d finding(s)@." tool (List.length findings)
      end

(* The documented allowlist: [failwith] is the parse-error channel of the
   DQDIMACS parser, caught as [Failure] at the CLI boundary. *)
let allowlist = [ ("lib/dqbf/pcnf.ml", Failwith_lib) ]

let allowlisted path rule =
  List.exists (fun (suffix, r) -> r = rule && String.ends_with ~suffix path) allowlist

(* [Longident.flatten] raises on [Lapply]; spell out the walk instead *)
let rec flat = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flat l @ [ s ]
  | Longident.Lapply _ -> []

let ident_path li = String.concat "." (flat li)

let dir_segments path =
  let rec segments p acc =
    let d = Filename.dirname p in
    if d = p then acc else segments d (Filename.basename p :: acc)
  in
  segments (Filename.dirname path) []

(* in a path like "lib/dqbf/pcnf.ml", is some directory segment "lib"? *)
let in_lib path = List.mem "lib" (dir_segments path)
let in_bin path = List.mem "bin" (dir_segments path)

(* is the file under the "lib/<sub>" directory (at any depth prefix)? the
   scope carve-outs for the fd and wall-clock rules *)
let in_lib_sub sub path =
  let rec adjacent = function
    | "lib" :: next :: _ when next = sub -> true
    | _ :: rest -> adjacent rest
    | [] -> false
  in
  adjacent (dir_segments path)

(* [bin/certcheck.ml] is the independent certificate verifier: its whole
   trust story is that it shares no code with the solver it checks, so
   any module-qualified reference rooted in a repo library is a finding.
   (The dune stanza enforces link-time isolation; this catches the
   source-level references that would motivate adding the dependency.) *)
let solver_roots =
  [
    "Sat"; "Maxsat"; "Aig"; "Qbf"; "Dqbf"; "Idq"; "Hqs"; "Cert"; "Check"; "Inproc";
    "Analysis"; "Circuit"; "Harness"; "Exec"; "Serve"; "Obs"; "Hqs_util"; "Linter";
  ]

let is_certcheck path = String.ends_with ~suffix:"bin/certcheck.ml" path

let rec catch_all_pattern p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> true
  | Parsetree.Ppat_alias (q, _) -> catch_all_pattern q
  | Parsetree.Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

let diag_of_loc ~path ~rule ~msg (loc : Location.t) =
  {
    file = path;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule;
    msg;
  }

let collect_structure ~path structure =
  let diags = ref [] in
  let add rule msg loc = diags := diag_of_loc ~path ~rule ~msg loc :: !diags in
  (* identifiers fully applied as binary operators are "blessed": [a = b]
     is ordinary OCaml, but a first-class or partially applied [( = )]
     handed to a container or search function is where polymorphic
     comparison hides *)
  let blessed : (Location.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let iter = Ast_iterator.default_iterator in
  let cert_isolation lid loc =
    match flat lid with
    | root :: _ when List.mem root solver_roots ->
        add Cert_isolation
          (Printf.sprintf
             "reference to solver module %s in the independent verifier: certcheck must \
              share no code with the solver it checks"
             root)
          loc
    | _ -> ()
  in
  let expr it (e : Parsetree.expression) =
    (if is_certcheck path then
       match e.pexp_desc with
       | Parsetree.Pexp_ident { txt; loc } | Parsetree.Pexp_construct ({ txt; loc }, _) -> (
           (* only module-qualified references: a bare local ident is fine *)
           match flat txt with _ :: _ :: _ -> cert_isolation txt loc | _ -> ())
       | Parsetree.Pexp_open
           ({ popen_expr = { pmod_desc = Parsetree.Pmod_ident { txt; loc }; _ }; _ }, _) ->
           cert_isolation txt loc
       | _ -> ());
    (match e.pexp_desc with
    | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident _; pexp_loc; _ }, args)
      when List.length args >= 2 ->
        Hashtbl.replace blessed pexp_loc ()
    | Parsetree.Pexp_try (_, cases) ->
        List.iter
          (fun (c : Parsetree.case) ->
            if catch_all_pattern c.pc_lhs then
              add Catch_all
                "catch-all exception handler: match the exceptions you expect (a bare handler \
                 swallows Timeout/Violation aborts)"
                c.pc_lhs.ppat_loc)
          cases
    | Parsetree.Pexp_ident { txt; loc } -> (
        match ident_path txt with
        | "Obj.magic" -> add Obj_magic "Obj.magic defeats the type system" loc
        | "compare" | "Stdlib.compare" | "Pervasives.compare" ->
            add Poly_compare
              "polymorphic compare: use a monomorphic compare (Int.compare, String.compare, ...)"
              loc
        | "Hashtbl.hash" | "Stdlib.Hashtbl.hash" ->
            add Poly_compare "polymorphic Hashtbl.hash: hash the representation explicitly" loc
        | "failwith" | "Stdlib.failwith" ->
            if in_lib path then
              add Failwith_lib
                "failwith in library code: raise a typed exception the caller can match"
                loc
        | "Unix.openfile" | "Unix.pipe" | "Unix.socket" | "Unix.socketpair" | "Unix.accept" ->
            if not (in_lib_sub "exec" path || in_lib_sub "serve" path) then
              add Raw_fd
                "raw file descriptor outside lib/exec or lib/serve: use the supervisor's \
                 wrappers (leaked fds survive the fork into sweep workers)"
                loc
        | "Unix.gettimeofday" | "Unix.time" ->
            if not (in_lib_sub "util" path) then
              add Wall_clock
                "wall-clock time outside lib/util: use the monotonic Budget.now (wall time \
                 breaks budgets and traces under clock steps)"
                loc
        | "Sys.time" | "Stdlib.Sys.time" | "Mono.now" | "Hqs_util.Mono.now"
        | "Unix.clock_gettime" ->
            if in_lib path && not (in_lib_sub "util" path) then
              add Mono_clock_span
                "non-canonical timestamp source in library code: Obs span and event \
                 timestamps must all come from Budget.now, or cross-process traces \
                 stitched from forked workers lose a common timebase"
                loc
        | "Printf.printf" | "Stdlib.Printf.printf" | "print_endline" | "print_string"
        | "print_newline" | "print_int" | "Stdlib.print_endline" | "Stdlib.print_string"
        | "Stdlib.print_newline" | "Stdlib.print_int" ->
            if in_lib path && not (in_lib_sub "harness" path) then
              add No_stdout
                "stdout write in library code outside lib/harness: solver stdout is a \
                 machine-readable channel — report through the harness or Obs"
                loc
        | "Unix.fork" | "UnixLabels.fork" ->
            if
              (in_lib path || in_bin path)
              && not (in_lib_sub "exec" path && Filename.basename path = "pool.ml")
            then
              add Fork_site
                "Unix.fork outside lib/exec/pool.ml: submit the child's work to Exec.Pool, \
                 the one fork site"
                loc
        | ("=" | "<>") when not (Hashtbl.mem blessed loc) ->
            add Poly_compare
              "first-class polymorphic equality: pass an explicit equality function"
              loc
        | _ -> ())
    | _ -> ());
    iter.expr it e
  in
  let structure_item it (si : Parsetree.structure_item) =
    (if is_certcheck path then
       match si.pstr_desc with
       | Parsetree.Pstr_open
           { popen_expr = { pmod_desc = Parsetree.Pmod_ident { txt; loc }; _ }; _ }
       | Parsetree.Pstr_module
           { pmb_expr = { pmod_desc = Parsetree.Pmod_ident { txt; loc }; _ }; _ } ->
           cert_isolation txt loc
       | _ -> ());
    iter.structure_item it si
  in
  let it = { iter with expr; structure_item } in
  it.structure it structure;
  List.rev !diags

let syntax_error ~path loc = [ diag_of_loc ~path ~rule:Syntax ~msg:"syntax error" loc ]

let lint_source ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  if Filename.check_suffix path ".mli" then
    (* interfaces carry no expressions; parse only to catch syntax errors *)
    match Parse.interface lexbuf with
    | _ -> []
    | exception Syntaxerr.Error err -> syntax_error ~path (Syntaxerr.location_of_error err)
    | exception Lexer.Error (_, loc) -> syntax_error ~path loc
  else
    match Parse.implementation lexbuf with
    | structure -> collect_structure ~path structure
    | exception Syntaxerr.Error err -> syntax_error ~path (Syntaxerr.location_of_error err)
    | exception Lexer.Error (_, loc) -> syntax_error ~path loc

(* -------------------------------------------------- suppression comments *)

(* the generic engine, shared with [deepcheck]'s source-comment
   suppression: a diagnostic on line [line] is silenced by [marker]
   appearing on that line or the line directly above *)
let suppressed_by_marker ~lines ~marker line =
  let has i =
    i >= 1 && i <= Array.length lines
    &&
    let line = lines.(i - 1) in
    let rec find j =
      j + String.length marker <= String.length line
      && (String.sub line j (String.length marker) = marker || find (j + 1))
    in
    find 0
  in
  has line || has (line - 1)

let suppressed ~lines d =
  suppressed_by_marker ~lines ~marker:("lint: allow " ^ rule_name d.rule) d.line

let lint_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content ->
      let lines = Array.of_list (String.split_on_char '\n' content) in
      lint_source ~path content
      |> List.filter (fun d -> not (allowlisted path d.rule) && not (suppressed ~lines d))
  | exception Sys_error msg ->
      [ { file = path; line = 1; col = 0; rule = Syntax; msg = "cannot read: " ^ msg } ]

(* ------------------------------------------------------------ missing mli *)

(* Pure over a file list so it is testable without touching the disk:
   every [lib/] implementation must publish an interface. *)
let check_missing_mli files =
  let have_mli =
    List.filter_map
      (fun p -> if Filename.check_suffix p ".mli" then Some (Filename.chop_suffix p ".mli") else None)
      files
  in
  List.filter_map
    (fun p ->
      if
        Filename.check_suffix p ".ml" && in_lib p
        && not (List.mem (Filename.chop_suffix p ".ml") have_mli)
      then
        Some
          {
            file = p;
            line = 1;
            col = 0;
            rule = Missing_mli;
            msg = "library module without an interface file";
          }
      else None)
    files

(* ------------------------------------------------------------------ walk *)

(* Collect lintable files and every path the walk could not read, instead
   of crashing on the [Sys_error] from an unreadable directory (or — the
   silent-skip failure mode — pretending it was clean). *)
let rec walk path ((files, errors) as acc) =
  match Sys.is_directory path with
  | true -> (
      match Sys.readdir path with
      | entries ->
          Array.fold_left
            (fun acc entry ->
              if entry = "_build" || entry = ".git" || (entry <> "" && entry.[0] = '.') then acc
              else walk (Filename.concat path entry) acc)
            acc entries
      | exception Sys_error msg -> (files, msg :: errors))
  | false ->
      if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
        (path :: files, errors)
      else acc
  | exception Sys_error msg -> (files, msg :: errors)

let lint_paths paths =
  let files, _errors = List.fold_left (fun acc p -> walk p acc) ([], []) paths in
  let files = List.sort String.compare files in
  List.concat_map lint_file files @ check_missing_mli files

let run ?(format = Human) paths =
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | missing :: _ ->
      Printf.eprintf "lint: no such file or directory: %s\n" missing;
      2
  | [] -> (
      if paths = [] then begin
        Printf.eprintf "lint: no paths given\n";
        2
      end
      else
        let per_path = List.map (fun p -> (p, walk p ([], []))) paths in
        let errors = List.concat_map (fun (_, (_, errors)) -> errors) per_path in
        if errors <> [] then begin
          List.iter (fun msg -> Printf.eprintf "lint: cannot read: %s\n" msg) errors;
          2
        end
        else
          match
            List.find_opt (fun (_, (files, _)) -> files = []) per_path
          with
          | Some (p, _) ->
              (* a path the user named but that contributes nothing would
                 otherwise pass silently — e.g. a typo'd non-source file *)
              Printf.eprintf "lint: no .ml/.mli files under: %s\n" p;
              2
          | None -> (
              match lint_paths paths with
              | [] ->
                  print_findings ~tool:"lint" format [];
                  0
              | diags ->
                  print_findings ~tool:"lint" format (List.map finding_of_diag diags);
                  1))
