(* lint: the repo's syntactic static-analysis gate (see
   lib/lint/linter.mli). The man page is the reference for the rule set
   and the suppression syntax; test_lint asserts every rule is
   documented here.

   Exit codes: 0 clean, 1 findings, 2 usage error (incl. nonexistent or
   unreadable paths, and paths contributing no .ml/.mli files — a gate
   must never silently skip what it was pointed at). *)

let default_paths = [ "lib"; "bin"; "test"; "examples" ]

let format_arg =
  let open Cmdliner in
  let human = (Linter.Human, Arg.info [ "human" ] ~doc:"Human-readable output (default).") in
  let json =
    ( Linter.Json,
      Arg.info [ "json" ]
        ~doc:
          "One JSON document on stdout: \
           {\"tool\":\"lint\",\"findings\":[...],\"count\":N}. Emitted even on a clean run." )
  in
  Arg.(value (vflag Linter.Human [ human; json ]))

let paths_arg =
  let open Cmdliner in
  Arg.(value (pos_all string default_paths (info [] ~docv:"PATH" ~doc:"Files or directories to lint (default: $(b,lib bin test examples)).")))

let rules_doc =
  List.map
    (fun rule ->
      `I (Printf.sprintf "$(b,%s)" (Linter.rule_name rule), Linter.rule_doc rule))
    Linter.all_rules

let man =
  [
    `S Cmdliner.Manpage.s_description;
    `P
      "Parse every .ml/.mli under the given paths and flag the repo's \
       forbidden constructs. Exit 0 when clean, 1 with findings, 2 on a \
       usage error (nonexistent path, unreadable file, or a path \
       contributing no OCaml sources — the gate never silently skips \
       what it was pointed at).";
    `S "RULES";
  ]
  @ rules_doc
  @ [
      `S "SUPPRESSION";
      `P
        "A finding is silenced by the marker $(b,lint: allow RULE) (in a \
         comment) on the offending line or the line directly above, e.g. \
         (* lint: allow catch-all *). Suppressions are grep-able and \
         reviewed like any other diff line.";
      `S "SEE ALSO";
      `P "$(b,deepcheck)(1) — the typed-tree interprocedural analyzer sharing this exit contract.";
    ]

let cmd =
  let open Cmdliner in
  let run format paths = Linter.run ~format paths in
  let info =
    Cmd.info "lint" ~doc:"syntactic static-analysis gate for the hqs repo" ~man
      ~exits:
        [
          Cmd.Exit.info 0 ~doc:"clean";
          Cmd.Exit.info 1 ~doc:"findings reported";
          Cmd.Exit.info 2 ~doc:"usage error";
        ]
  in
  Cmd.v info Term.(const run $ format_arg $ paths_arg)

let () = exit (Cmdliner.Cmd.eval' cmd)
