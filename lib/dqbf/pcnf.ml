type t = {
  num_vars : int;
  univs : int list;
  exists : (int * int list) list;
  clauses : int list list;
}

(* [f] on the tokens of each non-empty, non-comment line, in order. Lines
   are cut one at a time, so a line's tokens die young instead of the
   whole file's token lists being promoted and left to the major GC. *)
let iter_token_lines f s =
  let len = String.length s in
  let rec go i =
    if i <= len then begin
      let j = Option.value (String.index_from_opt s i '\n') ~default:len in
      let line = String.sub s i (j - i) in
      let trimmed = String.trim line in
      if not (String.length trimmed = 0 || trimmed.[0] = 'c') then
        f
          (String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun tok -> tok <> ""));
      go (j + 1)
    end
  in
  go 0

let parse_string s =
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
  let int_of tok = try int_of_string tok with Failure _ -> failwith ("Dqdimacs: bad token " ^ tok) in
  let var_of tok =
    let i = int_of tok in
    if i <= 0 then failwith "Dqdimacs: non-positive variable in prefix";
    num_vars := max !num_vars i;
    i - 1
  in
  let vars_of toks = List.filter_map (fun tok -> if int_of tok = 0 then None else Some (var_of tok)) toks in
  iter_token_lines
    (fun line ->
      match line with
      | [] -> ()
      | "p" :: "cnf" :: nv :: _ -> num_vars := max !num_vars (int_of nv)
      | "a" :: rest ->
          univs_rev := List.rev_append (vars_of rest) !univs_rev;
          univs_so_far := None
      | "e" :: rest ->
          let deps = declared_univs () in
          List.iter (fun v -> exists_rev := (v, deps) :: !exists_rev) (vars_of rest)
      | "d" :: rest -> (
          match vars_of rest with
          | y :: deps -> exists_rev := (y, deps) :: !exists_rev
          | [] -> failwith "Dqdimacs: empty d-line")
      | toks ->
          let current = ref [] in
          List.iter
            (fun tok ->
              let i = int_of tok in
              if i = 0 then begin
                clauses := List.rev !current :: !clauses;
                current := []
              end
              else begin
                num_vars := max !num_vars (abs i);
                current := i :: !current
              end)
            toks;
          if !current <> [] then failwith "Dqdimacs: clause not terminated by 0")
    s;
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
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" num_vars (List.length clauses));
  if univs <> [] then begin
    Buffer.add_string buf "a";
    List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (v + 1))) univs;
    Buffer.add_string buf " 0\n"
  end;
  List.iter
    (fun (y, deps) ->
      Buffer.add_string buf (Printf.sprintf "d %d" (y + 1));
      List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" (v + 1))) deps;
      Buffer.add_string buf " 0\n")
    exists;
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d " l)) clause;
      Buffer.add_string buf "0\n")
    clauses;
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
