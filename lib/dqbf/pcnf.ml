type t = {
  num_vars : int;
  univs : int list;
  exists : (int * int list) list;
  clauses : int list list;
}

(* the value of the decimal digits [s.[k..j)] after [acc], or -1 if one
   of those bytes is not a digit *)
let rec digits s j k acc =
  if k = j then acc
  else
    match s.[k] with
    | '0' .. '9' as ch -> digits s j (k + 1) ((acc * 10) + Char.code ch - Char.code '0')
    | _ -> -1

(* A byte-level scanner: integers are read straight out of [s], and only
   the lists of [t] are allocated. Tokens are separated by spaces, tabs
   and carriage returns, so CRLF files read like LF ones. A line that is
   blank or whose first visible character is [c] is a comment. A token
   that is plain [-?[0-9]+] (at most 18 digits) is read in place; any
   other goes through [int_of_string], so [+2] and [0x2] are accepted
   and a bad token is reported by its text. *)
let parse_string s =
  let len = String.length s in
  let pos = ref 0 in
  let is_sep = function ' ' | '\t' | '\r' -> true | _ -> false in
  (* skip separators; is a token of the current line left? *)
  let more () =
    while !pos < len && is_sep s.[!pos] do
      incr pos
    done;
    !pos < len && s.[!pos] <> '\n'
  in
  let token_end () =
    let j = ref !pos in
    while !j < len && (not (is_sep s.[!j])) && s.[!j] <> '\n' do
      incr j
    done;
    !j
  in
  let next_line () =
    while !pos < len && s.[!pos] <> '\n' do
      incr pos
    done;
    incr pos
  in
  (* the integer token at [!pos]; moves past it *)
  let int_tok () =
    let i = !pos in
    let j = token_end () in
    pos := j;
    let d0 = if s.[i] = '-' then i + 1 else i in
    let n = if j > d0 && j - d0 <= 18 then digits s j d0 0 else -1 in
    if n >= 0 then if d0 > i then -n else n
    else
      let tok = String.sub s i (j - i) in
      try int_of_string tok with Failure _ -> failwith ("Dqdimacs: bad token " ^ tok)
  in
  let num_vars = ref 0 in
  (* prefix lists are accumulated reversed and reversed once at the end;
     [univs_so_far] is the declaration-order list an [e] line depends on,
     rebuilt only after a new [a] line and shared by the [e] lines after it *)
  let univs_rev = ref [] in
  let univs_so_far = ref (Some []) in
  let exists_rev = ref [] in
  let clauses = ref [] in
  let declared_univs () =
    match !univs_so_far with
    | Some l -> l
    | None ->
        let l = List.rev !univs_rev in
        univs_so_far := Some l;
        l
  in
  (* the variables of the rest of a prefix line, 0-based, zeros skipped *)
  let vars () =
    let rec go acc =
      if not (more ()) then List.rev acc
      else
        match int_tok () with
        | 0 -> go acc
        | i ->
            if i < 0 then failwith "Dqdimacs: non-positive variable in prefix";
            num_vars := max !num_vars i;
            go ((i - 1) :: acc)
    in
    go []
  in
  let clause_line () =
    let rec go current =
      if more () then
        match int_tok () with
        | 0 ->
            clauses := List.rev current :: !clauses;
            go []
        | i ->
            num_vars := max !num_vars (abs i);
            go (i :: current)
      else if current <> [] then failwith "Dqdimacs: clause not terminated by 0"
    in
    go []
  in
  (* N of a [p cnf N ...] line, past its [p]; the rest is ignored *)
  let p_cnf () =
    incr pos;
    if more () && token_end () = !pos + 3 && String.sub s !pos 3 = "cnf" then begin
      pos := !pos + 3;
      if more () then Some (int_tok ()) else None
    end
    else None
  in
  let line () =
    let start = !pos in
    let word = if token_end () = start + 1 then s.[start] else ' ' in
    match word with
    | 'a' ->
        incr pos;
        univs_rev := List.rev_append (vars ()) !univs_rev;
        univs_so_far := None
    | 'e' ->
        incr pos;
        let deps = declared_univs () in
        List.iter (fun v -> exists_rev := (v, deps) :: !exists_rev) (vars ())
    | 'd' -> (
        incr pos;
        match vars () with
        | y :: deps -> exists_rev := (y, deps) :: !exists_rev
        | [] -> failwith "Dqdimacs: empty d-line")
    | 'p' -> (
        match p_cnf () with
        | Some nv -> num_vars := max !num_vars nv
        | None ->
            (* not [p cnf N]: read as a clause line, whose [p] is a bad token *)
            pos := start;
            clause_line ())
    | _ -> clause_line ()
  in
  (* the first character that String.trim keeps tells a blank line or a
     comment *)
  let is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false in
  while !pos < len do
    let i = ref !pos in
    while !i < len && is_blank s.[!i] do
      incr i
    done;
    if !i < len && s.[!i] <> '\n' && s.[!i] <> 'c' then begin
      ignore (more ());
      line ()
    end;
    next_line ()
  done;
  {
    num_vars = !num_vars;
    univs = declared_univs ();
    exists = List.rev !exists_rev;
    clauses = List.rev !clauses;
  }

let parse_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_string s

let to_string { num_vars; univs; exists; clauses } =
  let buf = Buffer.create 1024 in
  (* [prefix], each int followed by a space, then [stop] *)
  let line prefix ints stop =
    Buffer.add_string buf prefix;
    List.iter
      (fun n ->
        Buffer.add_string buf (string_of_int n);
        Buffer.add_char buf ' ')
      ints;
    Buffer.add_string buf stop
  in
  line "p cnf " [ num_vars ] (string_of_int (List.length clauses) ^ "\n");
  if univs <> [] then line "a " (List.map succ univs) "0\n";
  List.iter (fun (y, deps) -> line "d " ((y + 1) :: List.map succ deps) "0\n") exists;
  List.iter (fun clause -> line "" clause "0\n") clauses;
  Buffer.contents buf

let validate { num_vars; univs; exists; clauses } =
  let seen = Hashtbl.create 64 in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_var v = v >= 0 && v < num_vars in
  let rec check_decls = function
    | [] -> Ok ()
    | v :: rest ->
        if not (check_var v) then err "variable %d out of range" (v + 1)
        else if Hashtbl.mem seen v then err "variable %d declared twice" (v + 1)
        else begin
          Hashtbl.add seen v ();
          check_decls rest
        end
  in
  match check_decls (univs @ List.map fst exists) with
  | Error _ as e -> e
  | Ok () ->
      let univ_set = Hqs_util.Bitset.of_list univs in
      let bad_dep =
        List.find_opt
          (fun (_, deps) -> List.exists (fun d -> not (Hqs_util.Bitset.mem d univ_set)) deps)
          exists
      in
      (match bad_dep with
      | Some (y, _) -> err "existential %d depends on a non-universal" (y + 1)
      | None ->
          if
            List.exists
              (fun clause -> List.exists (fun l -> l = 0 || not (check_var (abs l - 1))) clause)
              clauses
          then err "clause literal out of range"
          else Ok ())

let to_formula ?node_limit pcnf =
  let f = Formula.create ?node_limit () in
  List.iter (Formula.add_universal f) pcnf.univs;
  List.iter
    (fun (y, deps) -> Formula.add_existential f y ~deps:(Hqs_util.Bitset.of_list deps))
    pcnf.exists;
  (* undeclared variables: existential with empty dependencies *)
  let declared = Hqs_util.Bitset.of_list (pcnf.univs @ List.map fst pcnf.exists) in
  for v = 0 to pcnf.num_vars - 1 do
    if not (Hqs_util.Bitset.mem v declared) then
      Formula.add_existential f v ~deps:Hqs_util.Bitset.empty
  done;
  let man = Formula.man f in
  let lit l = Aig.Man.apply_sign (Aig.Man.input man (abs l - 1)) ~neg:(l < 0) in
  let clause_lit c = Aig.Man.mk_or_list man (List.map lit c) in
  Formula.set_matrix f (Aig.Man.mk_and_list man (List.map clause_lit pcnf.clauses));
  f
