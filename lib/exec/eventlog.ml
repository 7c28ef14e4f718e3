module Json = Obs.Json

(* Structured operational event log: one checksummed JSONL line per
   daemon/supervisor lifecycle event (admission, shed, crash, retry,
   quarantine, cache audit, drain), with trace ids for correlating log
   lines against the Chrome trace of the same run.

   Same crash-safety contract as the resume journal: each line is built
   in memory, handed to the kernel as a single O_APPEND write, then
   fsynced — a writer killed mid-append leaves at most one torn trailing
   line, which the per-line checksum rejects on load. On top of that the
   log is size-rotated: when a line would push the file past [max_bytes]
   the current file is renamed to [path ^ ".1"] (replacing any previous
   rotation) and a fresh file is started, bounding disk use to roughly
   two generations. *)

type t = {
  path : string;
  max_bytes : int;
  mutable fd : Unix.file_descr;
  mutable size : int;
  mutable seq : int;
}

let default_max_bytes = 1 lsl 20

let rotated_path path = path ^ ".1"

let open_fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

let create ?(max_bytes = default_max_bytes) path =
  if max_bytes <= 0 then invalid_arg "Eventlog.create: max_bytes must be positive";
  let fd = open_fd path in
  let size = (Unix.fstat fd).Unix.st_size in
  { path; max_bytes; fd; size; seq = 0 }

let rotate t =
  Unix.close t.fd;
  (match Unix.rename t.path (rotated_path t.path) with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  t.fd <- open_fd t.path;
  t.size <- 0

let log t ~event ?trace_id ?(fields = []) () =
  t.seq <- t.seq + 1;
  let body =
    Json.Obj
      ([ ("seq", Json.Num (float_of_int t.seq)); ("ts", Json.Num (Hqs_util.Budget.now ())) ]
      @ [ ("ev", Json.Str event) ]
      @ (match trace_id with Some id -> [ ("trace", Json.Str id) ] | None -> [])
      @ fields)
  in
  let line = Bytes.of_string (Journal.envelope body ^ "\n") in
  if t.size > 0 && t.size + Bytes.length line > t.max_bytes then rotate t;
  (match Ipc.write_all t.fd line with
  | () ->
      t.size <- t.size + Bytes.length line;
      (match Unix.fsync t.fd with () -> () | exception Unix.Unix_error (_, _, _) -> ())
  | exception Unix.Unix_error (_, _, _) ->
      (* a full or vanished disk must not take the daemon down *)
      ())

let close t = match Unix.close t.fd with () -> () | exception Unix.Unix_error (_, _, _) -> ()

(* --------------------------------------------------------------- loading *)

type load = { events : Json.t list; dropped : int }

let load path =
  let events, dropped = Journal.load_lines Journal.open_envelope path in
  { events; dropped }
