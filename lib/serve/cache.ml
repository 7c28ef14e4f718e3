module Json = Obs.Json

type entry = { sat : bool; elapsed_s : float; h2 : string }

type t = { tbl : (string, entry) Hashtbl.t; journal : Exec.Journal.t option }

(* torn or undecodable journal lines skipped at load: a killed daemon
   leaves at most one, so a larger count is worth a look *)
let m_dropped = Obs.Metrics.counter "serve.cache_dropped"

let entry_to_json ~removed { sat; elapsed_s; h2 } =
  Json.Obj
    ([ ("sat", Json.Bool sat); ("elapsed_s", Json.Num elapsed_s); ("h2", Json.Str h2) ]
    @ if removed then [ ("removed", Json.Bool true) ] else [])

let entry_of_json j =
  match (Json.member "sat" j, Json.member "elapsed_s" j, Json.member "h2" j) with
  | Some (Json.Bool sat), Some e, Some (Json.Str h2) -> (
      match Json.to_number e with
      | Some elapsed_s ->
          let removed =
            match Json.member "removed" j with Some (Json.Bool true) -> true | _ -> false
          in
          Some (removed, { sat; elapsed_s; h2 })
      | None -> None)
  | _ -> None

let open_ ?path () =
  let tbl = Hashtbl.create 64 in
  (match path with
  | None -> ()
  | Some path ->
      (* the journal is append-only: later lines win, and a [removed]
         tombstone (an audit failure evicting a poisoned entry) must
         survive restarts just like a store does *)
      let { Exec.Journal.entries; dropped } = Exec.Journal.load path in
      Obs.Metrics.incr ~by:dropped m_dropped;
      List.iter
        (fun { Exec.Journal.task_id; data } ->
          match entry_of_json data with
          | Some (true, _) -> Hashtbl.remove tbl task_id
          | Some (false, e) -> Hashtbl.replace tbl task_id e
          | None -> Obs.Metrics.incr m_dropped)
        entries);
  let journal = Option.map Exec.Journal.open_append path in
  { tbl; journal }

let size t = Hashtbl.length t.tbl

let find t (key : Dqbf.Canon.key) =
  match Hashtbl.find_opt t.tbl key.Dqbf.Canon.h1 with
  | Some e when e.h2 = key.Dqbf.Canon.h2 -> Some e
  | Some _ -> None (* primary-fingerprint collision: treat as a miss *)
  | None -> None

let persist t ~removed key entry =
  match t.journal with
  | None -> ()
  | Some j ->
      Exec.Journal.append j
        { Exec.Journal.task_id = key.Dqbf.Canon.h1; data = entry_to_json ~removed entry }

let store t (key : Dqbf.Canon.key) ~sat ~elapsed_s =
  let entry = { sat; elapsed_s; h2 = key.Dqbf.Canon.h2 } in
  Hashtbl.replace t.tbl key.Dqbf.Canon.h1 entry;
  persist t ~removed:false key entry

let remove t (key : Dqbf.Canon.key) =
  match Hashtbl.find_opt t.tbl key.Dqbf.Canon.h1 with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.tbl key.Dqbf.Canon.h1;
      persist t ~removed:true key entry

let close t = Option.iter Exec.Journal.close t.journal
