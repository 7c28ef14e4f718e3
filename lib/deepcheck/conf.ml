(* The three reviewed policy files at the repo root. Each is a line
   format with '#' comments; parse errors and coverage gaps are loud
   (Error -> exit 2), because a policy file that silently half-parses is
   a policy that silently stopped being enforced.

   deepcheck.escapes  — per-library exception allowlists:
       library serve
         Serve.Daemon.Shutdown   # clean-stop control flow
   deepcheck.forkinit — fork entry points and sanctioned globals:
       entry Exec.Pool.run_child
       allow Obs.Trace.st  reset by Obs.fork_reinit
   deepcheck.layers   — the allowed inter-library DAG:
       library serve -> core obs util
       executable hqs_cli -> *
       executable test_* -> *                       *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line = String.split_on_char ' ' (strip_comment line) |> List.filter (fun t -> t <> "")

let fold_lines path f init =
  match In_channel.with_open_bin path In_channel.input_all with
  | text ->
      let lines = String.split_on_char '\n' text in
      let rec go acc lineno = function
        | [] -> Ok acc
        | line :: rest -> (
            match f acc lineno (tokens line) with
            | Ok acc -> go acc (lineno + 1) rest
            | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go init 1 lines
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg)

(* --------------------------------------------------------------- escapes *)

type escapes = (string * Extract.SSet.t) list  (* library -> allowed exception names *)

let parse_escapes path : (escapes, string) result =
  let step (current, acc) _lineno toks =
    match toks with
    | [] -> Ok (current, acc)
    | [ "library"; name ] -> (
        match current with
        | None -> Ok (Some (name, Extract.SSet.empty), acc)
        | Some cur -> Ok (Some (name, Extract.SSet.empty), cur :: acc))
    | [ exn ] -> (
        match current with
        | Some (name, set) -> Ok (Some (name, Extract.SSet.add exn set), acc)
        | None -> Error (Printf.sprintf "exception %S before any 'library' stanza" exn))
    | _ -> Error ("unparseable line: " ^ String.concat " " toks)
  in
  Result.map
    (fun (current, acc) ->
      List.rev (match current with Some cur -> cur :: acc | None -> acc))
    (fold_lines path step (None, []))

let escapes_allowed (e : escapes) lib =
  match List.assoc_opt lib e with Some s -> s | None -> Extract.SSet.empty

(* -------------------------------------------------------------- forkinit *)

type forkinit = {
  fi_entries : string list;  (* worker entry nodes, fully qualified *)
  fi_allow : (string * string) list;  (* sanctioned global -> reason *)
}

let parse_forkinit path : (forkinit, string) result =
  let step acc _lineno toks =
    match toks with
    | [] -> Ok acc
    | "entry" :: [ node ] -> Ok { acc with fi_entries = node :: acc.fi_entries }
    | "allow" :: global :: reason_toks when reason_toks <> [] ->
        Ok { acc with fi_allow = (global, String.concat " " reason_toks) :: acc.fi_allow }
    | "allow" :: _ -> Error "allow lines need a reason: allow <global> <why it is fork-safe>"
    | _ -> Error ("unparseable line: " ^ String.concat " " toks)
  in
  match fold_lines path step { fi_entries = []; fi_allow = [] } with
  | Error _ as e -> e
  | Ok acc ->
      if acc.fi_entries = [] then
        Error (path ^ ": no 'entry' lines — fork-safety with no entry points checks nothing")
      else Ok { fi_entries = List.rev acc.fi_entries; fi_allow = List.rev acc.fi_allow }

(* ---------------------------------------------------------------- layers *)

type layer_rule = {
  lr_kind : [ `Library | `Executable ];
  lr_name : string;  (* may end in '*' for a glob, e.g. "test_*" *)
  lr_deps : [ `Any | `Only of Extract.SSet.t ];
}

type layers = layer_rule list

let parse_layers path : (layers, string) result =
  let step acc _lineno toks =
    match toks with
    | [] -> Ok acc
    | kind_tok :: name :: "->" :: deps when kind_tok = "library" || kind_tok = "executable" ->
        let lr_kind = if String.equal kind_tok "library" then `Library else `Executable in
        let lr_deps =
          match deps with [ "*" ] -> `Any | deps -> `Only (Extract.SSet.of_list deps)
        in
        Ok ({ lr_kind; lr_name = name; lr_deps } :: acc)
    | _ ->
        Error
          ("unparseable line (want: library NAME -> dep... | executable NAME -> dep... | '*'): "
          ^ String.concat " " toks)
  in
  Result.map List.rev (fold_lines path step [])

let name_matches pattern name =
  if String.length pattern > 0 && pattern.[String.length pattern - 1] = '*' then
    String.starts_with ~prefix:(String.sub pattern 0 (String.length pattern - 1)) name
  else String.equal pattern name

(* first matching rule wins; exact names should precede globs in the file *)
let layer_rule_for (l : layers) kind name =
  List.find_opt
    (fun r ->
      (match (r.lr_kind, kind) with
      | `Library, `Library | `Executable, `Executable -> true
      | _ -> false)
      && name_matches r.lr_name name)
    l
