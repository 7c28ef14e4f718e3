module Json = Obs.Json

let header_len = 11 (* ten decimal digits + '\n' *)

(* ------------------------------------------------------- signal hygiene *)

let ignore_sigpipe () =
  (* a peer that closes its end mid-write must surface as EPIPE from
     [write], not as a process-killing signal *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* --------------------------------------------------- EINTR-safe syscalls *)

let rec retry_read fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_read fd buf off len

let rec retry_write fd buf off len =
  match Unix.write fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_write fd buf off len

let write_all fd bytes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + retry_write fd bytes !off (n - !off)
  done

(* --------------------------------------------------------------- frames *)

let frame_string json =
  let payload = Json.render json in
  Printf.sprintf "%010d\n%s" (String.length payload) payload

let write_frame fd json = write_all fd (Bytes.of_string (frame_string json))

(* --------------------------------------------------- incremental reading *)

(* Byte stream with possibly many frames in flight (the serve daemon's
   persistent connections), decoded incrementally: bytes accumulate in
   [buf] and [next_frame] peels complete frames off the front. *)
type reader = { buf : Buffer.t; mutable pos : int }

let reader () = { buf = Buffer.create 256; pos = 0 }

let feed r bytes len = Buffer.add_subbytes r.buf bytes 0 len

(* shift consumed bytes out once they dominate the buffer, so a
   long-lived connection doesn't grow without bound *)
let compact r =
  if r.pos > 4096 && r.pos * 2 > Buffer.length r.buf then begin
    let rest = Buffer.sub r.buf r.pos (Buffer.length r.buf - r.pos) in
    Buffer.clear r.buf;
    Buffer.add_string r.buf rest;
    r.pos <- 0
  end

let next_frame r =
  let avail = Buffer.length r.buf - r.pos in
  if avail < header_len then None
  else begin
    let header = Buffer.sub r.buf r.pos header_len in
    if header.[header_len - 1] <> '\n' then Some (Error "malformed frame header")
    else
      match int_of_string_opt (String.sub header 0 (header_len - 1)) with
      | None -> Some (Error "malformed frame length")
      | Some len when len < 0 -> Some (Error "negative frame length")
      | Some len ->
          if avail - header_len < len then None
          else begin
            let payload = Buffer.sub r.buf (r.pos + header_len) len in
            r.pos <- r.pos + header_len + len;
            compact r;
            match Json.parse payload with
            | Ok v -> Some (Ok v)
            | Error msg -> Some (Error ("bad frame JSON: " ^ msg))
          end
  end

type read_result = Frame of Json.t | Eof | Malformed of string

let read_next r fd =
  let chunk = Bytes.create 8192 in
  let rec go () =
    match next_frame r with
    | Some (Ok v) -> Frame v
    | Some (Error msg) -> Malformed msg
    | None -> (
        match retry_read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            if Buffer.length r.buf - r.pos = 0 then Eof
            else Malformed "EOF inside frame"
        | n ->
            feed r chunk n;
            go ())
  in
  go ()

let read_frame fd = read_next (reader ()) fd
