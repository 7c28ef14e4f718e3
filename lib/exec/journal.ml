module Json = Obs.Json

type entry = { task_id : string; data : Json.t }

(* FNV-1a over 64-bit-ish OCaml ints, masked to stay positive and
   identical across runs; the same construction Chaos uses for point
   streams. The offset basis is the standard 64-bit one truncated to
   OCaml's 63-bit int range. *)
let checksum s =
  let h = ref 0x4bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3 land max_int) s;
  Printf.sprintf "%015x" !h

(* the checksummed envelope shared with Eventlog: {"c":<checksum>,"e":<body>} *)
let envelope body =
  let rendered = Json.render body in
  Printf.sprintf "{\"c\":\"%s\",\"e\":%s}" (checksum rendered) rendered

let open_envelope line =
  match Json.parse line with
  | Error msg -> Error ("unparseable line: " ^ msg)
  | Ok v -> (
      match (Json.member "c" v, Json.member "e" v) with
      | Some (Json.Str c), Some e ->
          if c <> checksum (Json.render e) then Error "checksum mismatch" else Ok e
      | _ -> Error "missing checksum envelope")

let encode_line { task_id; data } =
  envelope (Json.Obj [ ("id", Json.Str task_id); ("data", data) ])

let decode_line line =
  Result.bind (open_envelope line) (fun e ->
      match (Json.member "id" e, Json.member "data" e) with
      | Some (Json.Str task_id), Some data -> Ok { task_id; data }
      | _ -> Error "missing id/data fields")

(* ------------------------------------------------------------- appending *)

type t = { fd : Unix.file_descr; path : string }

let path t = t.path

let open_append path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { fd; path }

(* crash safety: the full line is built in memory and handed to the
   kernel as a single append [write], then fsynced — a parent killed
   mid-append leaves at most one torn trailing line, which the per-line
   checksum rejects on load *)
let append t entry =
  let line = Bytes.of_string (encode_line entry ^ "\n") in
  Ipc.write_all t.fd line;
  Unix.fsync t.fd

let close t = Unix.close t.fd

(* --------------------------------------------------------------- loading *)

let load_lines decode path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let content = In_channel.with_open_bin path In_channel.input_all in
    let items, dropped =
      List.fold_left
        (fun (acc, dropped) line ->
          if String.trim line = "" then (acc, dropped)
          else
            match decode line with
            | Ok x -> (x :: acc, dropped)
            | Error _ -> (acc, dropped + 1))
        ([], 0)
        (String.split_on_char '\n' content)
    in
    (List.rev items, dropped)
  end

type load = { entries : entry list; dropped : int }

let load path =
  let entries, dropped = load_lines decode_line path in
  { entries; dropped }
