(* Per-unit extraction over the typed tree (.cmt): top-level definition
   nodes, their raise sites and outgoing references (each tagged with the
   set of exceptions caught around the site), toplevel mutable state, and
   the unit's public surface (.cmti). This is the single pass everything
   interprocedural (Graph + the three analyses in Driver) is built from.

   Approximations, chosen to keep the analysis a *may*-analysis:
   - nested functions/closures are attributed to their enclosing
     top-level binding: a reference counts as a call whether or not the
     closure is ever invoked;
   - higher-order flow through parameters is not tracked;
   - functor bodies are skipped (none of the repo's fork/escape surface
     lives in a functor);
   - programmer-error exceptions (Invalid_argument from bounds checks
     and [invalid_arg] precondition guards, Assert_failure,
     Match_failure, Division_by_zero) are deliberately out of scope:
     they are bug channels, not API channels, and tracking them would
     drown the reviewable allowlists (an [invalid_arg] guard on every
     accessor would put Invalid_argument in every library's list).
     Named control-flow exceptions (Not_found, Failure, End_of_file,
     Unix.Unix_error, repo exceptions ...) are tracked. *)

module SSet = Set.Make (String)

(* what is caught around a program point: [All] when an enclosing
   handler is a catch-all *)
type mask = All | Names of SSet.t

let mask_union a b =
  match (a, b) with All, _ | _, All -> All | Names x, Names y -> Names (SSet.union x y)

let mask_catches mask exn =
  match mask with
  | All -> true
  | Names s ->
      (* the unknown exception of a [raise e] on a variable can only be
         caught by a catch-all *)
      (not (String.equal exn "*")) && SSet.mem exn s

type origin = { o_file : string; o_line : int; o_col : int }

let origin_of_loc (loc : Location.t) =
  {
    o_file = loc.loc_start.pos_fname;
    o_line = loc.loc_start.pos_lnum;
    o_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
  }

type node = {
  n_name : string;  (* fully qualified, e.g. "Aig.Man.compact" *)
  n_loc : origin;
  n_is_fun : bool;  (* arrow-typed: referencing it can execute its body *)
  n_mutable : string option;  (* [Some reason] for toplevel mutable state *)
  n_raises : (string * mask * origin) list;
  n_edges : (string * mask * origin) list;
}

type unit_info = {
  u_unit : string;  (* normalized module path, e.g. "Aig.Man" *)
  u_lib : string;
  u_source : string;
  u_nodes : node list;
  u_public : (string * origin) list;  (* values the .mli exports *)
}

(* ------------------------------------------------------------ name munge *)

(* "Aig__Man" -> ["Aig"; "Man"]; dune's "Hqs__" alias module ->
   ["Hqs"] (trailing empty segment dropped) *)
let split_mangled s =
  let segs = ref [] and buf = Buffer.create 16 in
  let n = String.length s in
  let flush () =
    if Buffer.length buf > 0 then segs := Buffer.contents buf :: !segs;
    Buffer.clear buf
  in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      flush ();
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !segs

let normalize_segments parts =
  let parts = List.concat_map split_mangled parts in
  match parts with "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

let normalize_unit_name u = String.concat "." (normalize_segments [ u ])

let rec path_parts = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_parts p @ [ s ]
  | Path.Papply (p, _) -> path_parts p
  | Path.Pextra_ty (p, _) -> path_parts p

(* ------------------------------------------------------------- scopes *)

(* Lexical module scopes of the unit being walked, for resolving [Pident]
   references (the unit's own top-level values) and local module aliases
   ([module Json = Obs.Json] — this codebase's pervasive idiom; without
   alias chasing, cross-library edges like Budget.now -> Mono would be
   silently dropped). *)
type scope = {
  s_path : string;  (* "Aig.Man" or "Aig.Man.Internal" *)
  mutable s_values : SSet.t;
  mutable s_aliases : (string * string) list;  (* local module name -> normalized target *)
  mutable s_submodules : SSet.t;  (* local structure modules *)
  s_parent : scope option;
}

let new_scope ?parent s_path =
  { s_path; s_values = SSet.empty; s_aliases = []; s_submodules = SSet.empty; s_parent = parent }

let rec resolve_value scope name =
  if SSet.mem name scope.s_values then Some (scope.s_path ^ "." ^ name)
  else match scope.s_parent with Some p -> resolve_value p name | None -> None

let rec resolve_module scope name =
  match List.assoc_opt name scope.s_aliases with
  | Some target -> Some target
  | None ->
      if SSet.mem name scope.s_submodules then Some (scope.s_path ^ "." ^ name)
      else match scope.s_parent with Some p -> resolve_module p name | None -> None

(* a referenced path, as a normalized dotted name: the unit's own values
   resolve through the scope chain, module roots resolve through local
   aliases, everything else is treated as a global compilation unit *)
let resolve_path scope p =
  match path_parts p with
  | [] -> None
  | [ v ] -> (
      match resolve_value scope v with
      | Some full -> Some full
      | None -> Some v (* a bare global: stdlib value like "failwith", or a local — harmless *))
  | root :: rest ->
      let root_parts =
        match resolve_module scope root with
        | Some full -> String.split_on_char '.' full
        | None -> [ root ]
      in
      Some (String.concat "." (normalize_segments (root_parts @ rest)))

(* predeclared exceptions keep their bare names *)
let predef_exceptions =
  SSet.of_list
    [
      "Not_found"; "Failure"; "Invalid_argument"; "End_of_file"; "Sys_error"; "Out_of_memory";
      "Stack_overflow"; "Assert_failure"; "Match_failure"; "Division_by_zero"; "Exit";
      "Sys_blocked_io"; "Undefined_recursive_module";
    ]

let exn_name_of_path scope ~unit_prefix p =
  match path_parts p with
  | [ single ] when SSet.mem single predef_exceptions -> single
  | [ single ] ->
      (* an exception declared in the unit being walked: qualify it the
         way every other unit sees it *)
      unit_prefix ^ "." ^ single
  | root :: rest ->
      let root_parts =
        match resolve_module scope root with
        | Some full -> String.split_on_char '.' full
        | None -> [ root ]
      in
      String.concat "." (normalize_segments (root_parts @ rest))
  | [] -> "*"

(* ------------------------------------------------- stdlib raise effects *)

let raise_like = function
  | "raise" | "raise_notrace" | "Printexc.raise_with_backtrace" -> true
  | _ -> false

(* named control-flow exceptions of stdlib calls this codebase uses; the
   ISSUE-mandated trio (Hashtbl.find, List.find, int_of_string) plus the
   rest of the partial functions that show up in solver/daemon paths *)
let stdlib_raises name =
  match name with
  | "Hashtbl.find" -> [ "Not_found" ]
  | "List.find" | "List.assoc" | "String.index" | "String.rindex" | "String.index_from"
  | "Sys.getenv" | "Unix.getenv" | "Str.matched_group" | "Str.search_forward" ->
      [ "Not_found" ]
  | "List.hd" | "List.tl" | "List.nth" | "int_of_string" | "float_of_string" ->
      [ "Failure" ]
  | "Queue.take" | "Queue.pop" | "Queue.peek" | "Queue.top" -> [ "Queue.Empty" ]
  | "Stack.pop" | "Stack.top" -> [ "Stack.Empty" ]
  | "input_line" | "input_char" | "input_byte" | "really_input" | "really_input_string" ->
      [ "End_of_file" ]
  | "open_in" | "open_in_bin" | "open_out" | "open_out_bin" | "In_channel.open_bin"
  | "In_channel.open_text" | "In_channel.with_open_bin" | "In_channel.with_open_text"
  | "Out_channel.open_bin" | "Out_channel.open_text" | "Out_channel.with_open_bin"
  | "Out_channel.with_open_text" | "Sys.readdir" | "Sys.is_directory" | "Sys.remove"
  | "Sys.rename" | "Sys.getcwd" | "Sys.chdir" ->
      [ "Sys_error" ]
  (* total Unix functions: cannot fail on any POSIX system this runs
     on, and blanket-tagging them would put Unix_error in every
     library's allowlist via the Mono clock *)
  | "Unix.gettimeofday" | "Unix.time" | "Unix.getpid" | "Unix.getppid" | "Unix.error_message" ->
      []
  | _ ->
      (* every other Unix syscall wrapper can fail with Unix_error; the
         stdlib channel helpers above raise Sys_error instead *)
      if String.length name > 5 && String.starts_with ~prefix:"Unix." name then
        [ "Unix.Unix_error" ]
      else []

(* inherited standard descriptors: reachable uses from a fork child are
   findings unless sanctioned (the child shares them with the parent) *)
let inherited_fd = function
  | "stdin" | "stdout" | "stderr" | "Unix.stdin" | "Unix.stdout" | "Unix.stderr" -> true
  | _ -> false

(* ----------------------------------------------------- expression walk *)

let is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (t, _) -> ( match Types.get_desc t with Types.Tarrow _ -> true | _ -> false)
  | _ -> false

(* does [mutable state escape the binding]: the RHS shapes that allocate
   toplevel mutable state *)
let mutable_shape (e : Typedtree.expression) scope =
  match e.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) -> (
      match Option.value ~default:"" (resolve_path scope p) with
      | "ref" -> Some "ref cell"
      | "Hashtbl.create" -> Some "Hashtbl"
      | "Buffer.create" -> Some "Buffer"
      | "Queue.create" -> Some "Queue"
      | "Stack.create" -> Some "Stack"
      | "Array.make" | "Array.init" | "Array.create_float" -> Some "array"
      | "Bytes.create" | "Bytes.make" -> Some "bytes"
      | "Atomic.make" -> Some "Atomic"
      | "Weak.create" -> Some "Weak array"
      | _ -> None)
  | Typedtree.Texp_record { fields; _ }
    when Array.exists
           (fun (ld, _) ->
             match ld.Types.lbl_mut with Asttypes.Mutable -> true | Asttypes.Immutable -> false)
           fields ->
      Some "record with mutable fields"
  | Typedtree.Texp_array (_ :: _) -> Some "array literal"
  | _ -> None

type collector = {
  mutable raises : (string * mask * origin) list;
  mutable edges : (string * mask * origin) list;
}

(* catch set of one handler case: what it reliably catches. Guarded
   handlers catch nothing (the guard may decline). *)
let rec pattern_catches scope ~unit_prefix (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_any | Typedtree.Tpat_var _ -> All
  | Typedtree.Tpat_alias (q, _, _) -> pattern_catches scope ~unit_prefix q
  | Typedtree.Tpat_or (a, b, _) ->
      mask_union (pattern_catches scope ~unit_prefix a) (pattern_catches scope ~unit_prefix b)
  | Typedtree.Tpat_construct (_, cd, _, _) -> (
      match cd.Types.cstr_tag with
      | Types.Cstr_extension (path, _) ->
          Names (SSet.singleton (exn_name_of_path scope ~unit_prefix path))
      | _ -> Names SSet.empty)
  | _ -> Names SSet.empty

(* the bound variable of a catch-all case, for spotting the
   cleanup-and-reraise idiom *)
let rec catchall_binder (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some id
  | Typedtree.Tpat_alias (q, id, _) -> (
      match catchall_binder q with Some i -> Some i | None -> Some id)
  | _ -> None

(* does the handler body re-raise its bound exception variable? if so
   the try is a pass-through for escape purposes, not a mask *)
let reraises_binder id (body : Typedtree.expression) =
  let found = ref false in
  let it = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (fp, _, _); _ }, args) -> (
        match path_parts fp with
        | [ f ] | [ "Stdlib"; f ] | [ "Printexc"; f ] | [ "Stdlib"; "Printexc"; f ]
          when raise_like f || raise_like ("Printexc." ^ f) -> (
            match args with
            | (_, Some { exp_desc = Typedtree.Texp_ident (Path.Pident id', _, _); _ }) :: _
              when Ident.same id id' ->
                found := true
            | _ -> ())
        | _ -> ())
    | _ -> ());
    it.expr sub e
  in
  let sub = { it with expr } in
  sub.expr sub body;
  !found

let walk_body ~scope ~unit_prefix ~(collector : collector) (body : Typedtree.expression) =
  let mask = ref (Names SSet.empty) in
  (* exception variables whose re-raise is modelled as pass-through *)
  let suppressed = ref [] in
  let add_raise exn loc = collector.raises <- (exn, !mask, origin_of_loc loc) :: collector.raises in
  let add_edge name loc =
    if not (mask_catches !mask "") then ();
    collector.edges <- (name, !mask, origin_of_loc loc) :: collector.edges
  in
  let it = Tast_iterator.default_iterator in
  let with_mask m f =
    let saved = !mask in
    mask := mask_union saved m;
    f ();
    mask := saved
  in
  let record_apply (e : Typedtree.expression) fn args =
    match fn.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
        let name = Option.value ~default:"" (resolve_path scope p) in
        if raise_like name then begin
          (match args with
          | (_, Some arg) :: _ -> (
              match arg.Typedtree.exp_desc with
              | Typedtree.Texp_construct (_, cd, _) -> (
                  match cd.Types.cstr_tag with
                  | Types.Cstr_extension (path, _) ->
                      add_raise (exn_name_of_path scope ~unit_prefix path) e.exp_loc
                  | _ -> ())
              | Typedtree.Texp_ident (Path.Pident id, _, _)
                when List.exists (Ident.same id) !suppressed ->
                  (* cleanup-and-reraise of the handler's own binder:
                     modelled as pass-through at the try, not a raise *)
                  ()
              | _ -> add_raise "*" e.exp_loc)
          | (_, None) :: _ | [] -> ());
          true
        end
        else if String.equal name "failwith" then begin
          add_raise "Failure" e.exp_loc;
          true
        end
        else if String.equal name "invalid_arg" then
          (* precondition guard: a bug channel, not an API channel *)
          true
        else if
          (String.equal name "Printf.ksprintf" || String.equal name "Format.ksprintf")
          &&
          match args with
          | (_, Some { exp_desc = Typedtree.Texp_ident (kp, _, _); _ }) :: _ ->
              String.equal (Option.value ~default:"" (resolve_path scope kp)) "failwith"
          | _ -> false
        then begin
          add_raise "Failure" e.exp_loc;
          true
        end
        else begin
          List.iter (fun exn -> add_raise exn e.exp_loc) (stdlib_raises name);
          false
        end)
    | _ -> false
  in
  let rec expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_try (body, cases) ->
        (* catch set: unguarded handlers; a catch-all that re-raises its
           binder is pass-through and contributes nothing *)
        let caught = ref (Names SSet.empty) in
        let case_binders = ref [] in
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            if c.c_guard = None then begin
              let m = pattern_catches scope ~unit_prefix c.c_lhs in
              let passthrough =
                match m with
                | All -> (
                    match catchall_binder c.c_lhs with
                    | Some id when reraises_binder id c.c_rhs ->
                        case_binders := id :: !case_binders;
                        true
                    | Some _ | None -> false)
                | Names _ -> false
              in
              if not passthrough then caught := mask_union !caught m
            end)
          cases;
        with_mask !caught (fun () -> expr sub body);
        (* handler bodies run outside the try: original mask, with the
           pass-through binders' re-raises suppressed *)
        let saved = !suppressed in
        suppressed := !case_binders @ saved;
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            sub.Tast_iterator.pat sub c.c_lhs;
            (match c.c_guard with Some g -> expr sub g | None -> ());
            expr sub c.c_rhs)
          cases;
        suppressed := saved
    | Typedtree.Texp_match (scrut, cases, _) ->
        (* [match e with exception E -> ...] masks E for the scrutinee
           only; a catch-all exception case that re-raises its binder
           (the Span.with_ close-and-reraise idiom) is pass-through *)
        let caught = ref (Names SSet.empty) in
        let case_binders = ref [] in
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            if c.c_guard = None then
              match Typedtree.split_pattern c.c_lhs with
              | _, Some exn_pat -> (
                  match pattern_catches scope ~unit_prefix exn_pat with
                  | All -> (
                      match catchall_binder exn_pat with
                      | Some id when reraises_binder id c.c_rhs ->
                          case_binders := id :: !case_binders
                      | Some _ | None -> caught := All)
                  | Names _ as m -> caught := mask_union !caught m)
              | _, None -> ())
          cases;
        with_mask !caught (fun () -> expr sub scrut);
        let saved = !suppressed in
        suppressed := !case_binders @ saved;
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            sub.Tast_iterator.pat sub c.c_lhs;
            (match c.c_guard with Some g -> expr sub g | None -> ());
            expr sub c.c_rhs)
          cases;
        suppressed := saved
    | Typedtree.Texp_apply (fn, args) ->
        let was_raise_form = record_apply e fn args in
        (* walk operands; skip re-walking the callee ident of a raise
           form so the reraise suppression holds *)
        if was_raise_form then
          List.iter (fun (_, a) -> Option.iter (fun a -> expr sub a) a) args
        else it.Tast_iterator.expr sub e
    | Typedtree.Texp_ident (p, _, _) ->
        (match resolve_path scope p with
        | Some name when String.contains name '.' || inherited_fd name -> add_edge name e.exp_loc
        | Some _ | None -> ());
        it.Tast_iterator.expr sub e
    | _ -> it.Tast_iterator.expr sub e
  in
  let sub = { it with expr } in
  sub.expr sub body

(* ------------------------------------------------------ structure walk *)

let rec pat_bound_name (p : Typedtree.pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (_, name) -> Some name.txt
  | Typedtree.Tpat_alias (q, _, name) -> (
      match pat_bound_name q with Some n -> Some n | None -> Some name.txt)
  | _ -> None

let rec walk_structure ~unit_prefix ~nodes scope (str : Typedtree.structure) =
  List.iter (walk_structure_item ~unit_prefix ~nodes scope) str.str_items

and walk_structure_item ~unit_prefix ~nodes scope (item : Typedtree.structure_item) =
  match item.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
      (* names first, so a recursive group resolves its own members *)
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match pat_bound_name vb.vb_pat with
          | Some n -> scope.s_values <- SSet.add n scope.s_values
          | None -> ())
        vbs;
      let anon = ref 0 in
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let name =
            match pat_bound_name vb.vb_pat with
            | Some n -> n
            | None ->
                (* [let () = ...] / destructuring: module-init code *)
                incr anon;
                Printf.sprintf "(init-%d)" !anon
          in
          let collector = { raises = []; edges = [] } in
          walk_body ~scope ~unit_prefix ~collector vb.vb_expr;
          nodes :=
            {
              n_name = scope.s_path ^ "." ^ name;
              n_loc = origin_of_loc vb.vb_pat.pat_loc;
              n_is_fun = is_arrow vb.vb_expr.exp_type;
              n_mutable = mutable_shape vb.vb_expr scope;
              n_raises = List.rev collector.raises;
              n_edges = List.rev collector.edges;
            }
            :: !nodes)
        vbs
  | Typedtree.Tstr_module mb -> walk_module_binding ~unit_prefix ~nodes scope mb
  | Typedtree.Tstr_recmodule mbs ->
      List.iter (walk_module_binding ~unit_prefix ~nodes scope) mbs
  | _ -> ()

and walk_module_binding ~unit_prefix ~nodes scope (mb : Typedtree.module_binding) =
  match mb.mb_name.txt with
  | None -> ()
  | Some name -> walk_module_expr ~unit_prefix ~nodes scope name mb.mb_expr

and walk_module_expr ~unit_prefix ~nodes scope name (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str ->
      scope.s_submodules <- SSet.add name scope.s_submodules;
      let child = new_scope ~parent:scope (scope.s_path ^ "." ^ name) in
      walk_structure ~unit_prefix ~nodes child str
  | Typedtree.Tmod_ident (p, _) ->
      (* [module Json = Obs.Json]: record the alias so references through
         the local name resolve to the real target *)
      let target =
        match path_parts p with
        | [] -> name
        | root :: rest ->
            let root_parts =
              match resolve_module scope root with
              | Some full -> String.split_on_char '.' full
              | None -> [ root ]
            in
            String.concat "." (normalize_segments (root_parts @ rest))
      in
      scope.s_aliases <- (name, target) :: scope.s_aliases
  | Typedtree.Tmod_constraint (inner, _, _, _) ->
      walk_module_expr ~unit_prefix ~nodes scope name inner
  | _ ->
      (* functor bodies/applications: out of scope, but the module name
         must still shadow correctly *)
      scope.s_submodules <- SSet.add name scope.s_submodules

(* ----------------------------------------------------- public surface *)

let rec public_of_signature prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Typedtree.Tsig_value vd ->
          [ (prefix ^ "." ^ Ident.name vd.val_id, origin_of_loc vd.val_loc) ]
      | Typedtree.Tsig_module md -> (
          match (md.md_id, md.md_type.mty_desc) with
          | Some id, Typedtree.Tmty_signature inner ->
              public_of_signature (prefix ^ "." ^ Ident.name id) inner
          | _ -> [])
      | _ -> [])
    sg.sig_items

(* -------------------------------------------------------------- loading *)

type cmt_result = Unit of unit_info | Skipped of string | Unreadable of string

let read_annots path =
  match Cmt_format.read_cmt path with
  | infos -> Ok infos
  | exception Cmi_format.Error _ -> Error (path ^ ": bad cmt magic (compiler mismatch?)")
  | exception Sys_error msg -> Error (path ^ ": " ^ msg)
  | exception End_of_file -> Error (path ^ ": truncated cmt")
  | exception Failure msg -> Error (path ^ ": " ^ msg)

let load_unit ~lib ~source ~cmt ~cmti =
  match read_annots cmt with
  | Error msg -> Unreadable msg
  | Ok infos -> (
      let unit_prefix = normalize_unit_name infos.Cmt_format.cmt_modname in
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
          let nodes = ref [] in
          let scope = new_scope unit_prefix in
          walk_structure ~unit_prefix ~nodes scope str;
          let u_public =
            match cmti with
            | None -> []
            | Some cmti_path -> (
                match read_annots cmti_path with
                | Error _ -> []
                | Ok iinfos -> (
                    match iinfos.Cmt_format.cmt_annots with
                    | Cmt_format.Interface sg -> public_of_signature unit_prefix sg
                    | _ -> []))
          in
          Unit
            {
              u_unit = unit_prefix;
              u_lib = lib;
              u_source = source;
              u_nodes = List.rev !nodes;
              u_public;
            }
      | Cmt_format.Interface _ | Cmt_format.Packed _ -> Skipped (cmt ^ ": not an implementation")
      | Cmt_format.Partial_implementation _ | Cmt_format.Partial_interface _ ->
          Unreadable (cmt ^ ": partial cmt (failed build?) — rebuild before deepcheck"))
