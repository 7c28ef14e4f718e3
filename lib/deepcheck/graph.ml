(* Whole-repo call graph over Extract nodes, with the two fixpoints the
   analyses need: the may-raise set of every node (exception-escape) and
   entry reachability with provenance (fork-safety witness chains). *)

module SSet = Extract.SSet
module SMap = Map.Make (String)

type provenance =
  | Direct of Extract.origin
  | Via of { callee : string; site : Extract.origin }

type t = {
  nodes : Extract.node SMap.t;
  may_raise : SSet.t SMap.t;
  provenance : provenance SMap.t SMap.t;  (* node -> exn -> how it got there *)
}

let node t name = SMap.find_opt name t.nodes

let may_raise t name =
  match SMap.find_opt name t.may_raise with Some s -> s | None -> SSet.empty

(* --------------------------------------------------------------- build *)

(* may_raise(n) = direct(n) ∪ ⋃_{(c,mask) ∈ edges(n), c arrow-typed}
   (may_raise(c) \ mask). Worklist over reverse edges; terminates because
   sets only grow and the exception universe is finite. *)
let build (all : Extract.node list) =
  let nodes =
    List.fold_left (fun acc (n : Extract.node) -> SMap.add n.Extract.n_name n acc) SMap.empty all
  in
  (* reverse dependency index: callee -> callers that must be revisited
     when the callee's set grows *)
  let callers = Hashtbl.create 1024 in
  SMap.iter
    (fun name (n : Extract.node) ->
      List.iter
        (fun (callee, _, _) ->
          if SMap.mem callee nodes then Hashtbl.add callers callee name)
        n.Extract.n_edges)
    nodes;
  let may = Hashtbl.create 1024 in
  let prov = Hashtbl.create 1024 in
  let get name = match Hashtbl.find_opt may name with Some s -> s | None -> SSet.empty in
  let record_prov name exn p =
    if not (Hashtbl.mem prov (name, exn)) then Hashtbl.replace prov (name, exn) p
  in
  let queue = Queue.create () in
  let enqueue name = Queue.add name queue in
  (* seed with unmasked direct raises *)
  SMap.iter
    (fun name (n : Extract.node) ->
      let direct =
        List.fold_left
          (fun acc (exn, m, o) ->
            if Extract.mask_catches m exn then acc
            else begin
              record_prov name exn (Direct o);
              SSet.add exn acc
            end)
          SSet.empty n.Extract.n_raises
      in
      if not (SSet.is_empty direct) then begin
        Hashtbl.replace may name direct;
        enqueue name
      end)
    nodes;
  while not (Queue.is_empty queue) do
    let changed = Queue.pop queue in
    let changed_set = get changed in
    List.iter
      (fun caller ->
        match SMap.find_opt caller nodes with
        | None -> ()
        | Some cn ->
            let before = get caller in
            let after =
              List.fold_left
                (fun acc (callee, m, site) ->
                  if
                    String.equal callee changed
                    && (match SMap.find_opt callee nodes with
                       | Some c -> c.Extract.n_is_fun
                       | None -> false)
                  then
                    SSet.fold
                      (fun exn acc ->
                        if Extract.mask_catches m exn || SSet.mem exn acc then acc
                        else begin
                          record_prov caller exn (Via { callee; site });
                          SSet.add exn acc
                        end)
                      changed_set acc
                  else acc)
                before cn.Extract.n_edges
            in
            if SSet.cardinal after > SSet.cardinal before then begin
              Hashtbl.replace may caller after;
              enqueue caller
            end)
      (Hashtbl.find_all callers changed)
  done;
  let may_raise = Hashtbl.fold (fun name s acc -> SMap.add name s acc) may SMap.empty in
  let provenance =
    Hashtbl.fold
      (fun (name, exn) p acc ->
        let inner = match SMap.find_opt name acc with Some m -> m | None -> SMap.empty in
        SMap.add name (SMap.add exn p inner) acc)
      prov SMap.empty
  in
  { nodes; may_raise; provenance }

(* ---------------------------------------------------------- provenance *)

let origin_string (o : Extract.origin) =
  Printf.sprintf "%s:%d:%d" o.Extract.o_file o.Extract.o_line o.Extract.o_col

(* witness chain: "raised at lib/x.ml:3 in A.f, via A.g <- A.h" — how the
   exception travels from its raise site up to [name] *)
let chain t name exn =
  let rec follow name acc depth =
    if depth > 32 then List.rev ("..." :: acc)
    else
      match SMap.find_opt name t.provenance with
      | None -> List.rev acc
      | Some m -> (
          match SMap.find_opt exn m with
          | None -> List.rev acc
          | Some (Direct o) -> List.rev (Printf.sprintf "raised at %s" (origin_string o) :: acc)
          | Some (Via { callee; site }) ->
              follow callee (Printf.sprintf "via %s (%s)" callee (origin_string site) :: acc) (depth + 1))
  in
  String.concat ", " (follow name [] 0)

(* -------------------------------------------------------- reachability *)

type reach = { r_parent : (string * Extract.origin) option (* None for entry points *) }

(* BFS over call edges from the entry set. Only arrow-typed targets
   propagate further (referencing a toplevel value does not run code),
   but the reference itself is recorded — that reference IS the finding
   when the target is mutable state. *)
let reachable t ~entries =
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun e ->
      if (not (Hashtbl.mem seen e)) && SMap.mem e t.nodes then begin
        Hashtbl.replace seen e { r_parent = None };
        Queue.add e queue
      end)
    entries;
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    match SMap.find_opt name t.nodes with
    | None -> ()
    | Some n ->
        List.iter
          (fun (callee, _, site) ->
            match SMap.find_opt callee t.nodes with
            | Some c when c.Extract.n_is_fun && not (Hashtbl.mem seen callee) ->
                Hashtbl.replace seen callee { r_parent = Some (name, site) };
                Queue.add callee queue
            | _ -> ())
          n.Extract.n_edges
  done;
  seen

(* call-path witness for a reachable node: "Exec.Pool.run_child ->
   Obs.Metrics.observe (at lib/exec/pool.ml:160)" *)
let reach_path (seen : (string, reach) Hashtbl.t) name =
  let rec up name acc depth =
    if depth > 64 then "..." :: acc
    else
      match Hashtbl.find_opt seen name with
      | None | Some { r_parent = None } -> name :: acc
      | Some { r_parent = Some (parent, site) } ->
          up parent (Printf.sprintf "%s (at %s)" name (origin_string site) :: acc) (depth + 1)
  in
  String.concat " -> " (up name [] 0)
