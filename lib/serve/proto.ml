module Json = Obs.Json

(* ------------------------------------------------------- client protocol *)

type request =
  | Solve of { text : string; timeout_s : float option; sleep_s : float; want_cert : bool }
  | Ping
  | Health

type failure = F_timeout | F_memout | F_crash

type health = {
  live_workers : int;
  h_queue_depth : int;
  in_flight : int;
  draining : bool;
  uptime_s : float;
  states : string list;
  lat_n : int;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  h_metrics : (string * float) list;
}

type reply =
  | Verdict of {
      sat : bool;
      elapsed_s : float;
      cached : bool;
      audited : bool;
      cert : string option;
    }
  | Failed of { failure : failure; elapsed_s : float; detail : string }
  | Overloaded of { queue_depth : int }
  | Draining
  | Invalid of string
  | Pong
  | Health_reply of health
  | Audit_failed of { cached_sat : bool; fresh_sat : bool }

let failure_name = function F_timeout -> "timeout" | F_memout -> "memout" | F_crash -> "crash"

let failure_of_name = function
  | "timeout" -> Some F_timeout
  | "memout" -> Some F_memout
  | "crash" -> Some F_crash
  | _ -> None

let request_to_json = function
  | Solve { text; timeout_s; sleep_s; want_cert } ->
      Json.Obj
        ([ ("op", Json.Str "solve"); ("dqdimacs", Json.Str text) ]
        @ (match timeout_s with None -> [] | Some s -> [ ("timeout_s", Json.Num s) ])
        @ (if sleep_s > 0. then [ ("sleep_s", Json.Num sleep_s) ] else [])
        @ if want_cert then [ ("cert", Json.Bool true) ] else [])
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Health -> Json.Obj [ ("op", Json.Str "health") ]

let request_of_json j =
  match Json.member "op" j with
  | Some (Json.Str "ping") -> Ok Ping
  | Some (Json.Str "health") -> Ok Health
  | Some (Json.Str "solve") -> (
      match Json.member "dqdimacs" j with
      | Some (Json.Str text) ->
          let num name =
            match Json.member name j with Some v -> Json.to_number v | None -> None
          in
          Ok
            (Solve
               {
                 text;
                 timeout_s = num "timeout_s";
                 sleep_s = (match num "sleep_s" with Some s -> s | None -> 0.);
                 want_cert =
                   (match Json.member "cert" j with Some (Json.Bool b) -> b | _ -> false);
               })
      | _ -> Error "solve request lacks a dqdimacs string")
  | Some (Json.Str op) -> Error ("unknown op: " ^ op)
  | _ -> Error "request lacks an op field"

let reply_to_json = function
  | Verdict { sat; elapsed_s; cached; audited; cert } ->
      Json.Obj
        ([
           ("r", Json.Str "verdict");
           ("sat", Json.Bool sat);
           ("elapsed_s", Json.Num elapsed_s);
           ("cached", Json.Bool cached);
           ("audited", Json.Bool audited);
         ]
        @ match cert with Some c -> [ ("cert", Json.Str c) ] | None -> [])
  | Failed { failure; elapsed_s; detail } ->
      Json.Obj
        [
          ("r", Json.Str "failed");
          ("failure", Json.Str (failure_name failure));
          ("elapsed_s", Json.Num elapsed_s);
          ("detail", Json.Str detail);
        ]
  | Overloaded { queue_depth } ->
      Json.Obj [ ("r", Json.Str "overloaded"); ("queue_depth", Json.Num (float_of_int queue_depth)) ]
  | Draining -> Json.Obj [ ("r", Json.Str "draining") ]
  | Invalid msg -> Json.Obj [ ("r", Json.Str "invalid"); ("msg", Json.Str msg) ]
  | Pong -> Json.Obj [ ("r", Json.Str "pong") ]
  | Health_reply h ->
      Json.Obj
        ([
           ("r", Json.Str "health");
           ("workers", Json.Num (float_of_int h.live_workers));
           ("queue_depth", Json.Num (float_of_int h.h_queue_depth));
           ("in_flight", Json.Num (float_of_int h.in_flight));
           ("draining", Json.Bool h.draining);
           ("uptime_s", Json.Num h.uptime_s);
           ("states", Json.Arr (List.map (fun s -> Json.Str s) h.states));
           ("lat_n", Json.Num (float_of_int h.lat_n));
         ]
        @ (if h.lat_n > 0 then
             [
               ("p50", Json.Num h.lat_p50);
               ("p95", Json.Num h.lat_p95);
               ("p99", Json.Num h.lat_p99);
             ]
           else [])
        @ [
            ( "metrics",
              Json.Obj (List.map (fun (name, v) -> (name, Json.Num v)) h.h_metrics) );
          ])
  | Audit_failed { cached_sat; fresh_sat } ->
      Json.Obj
        [
          ("r", Json.Str "audit_failed");
          ("cached_sat", Json.Bool cached_sat);
          ("fresh_sat", Json.Bool fresh_sat);
        ]

let reply_of_json j =
  let bool name = match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None in
  let num name = match Json.member name j with Some v -> Json.to_number v | None -> None in
  let str name = match Json.member name j with Some (Json.Str s) -> Some s | _ -> None in
  match str "r" with
  | Some "verdict" -> (
      match (bool "sat", num "elapsed_s", bool "cached", bool "audited") with
      | Some sat, Some elapsed_s, Some cached, Some audited ->
          Ok (Verdict { sat; elapsed_s; cached; audited; cert = str "cert" })
      | _ -> Error "malformed verdict reply")
  | Some "failed" -> (
      match (Option.bind (str "failure") failure_of_name, num "elapsed_s", str "detail") with
      | Some failure, Some elapsed_s, Some detail -> Ok (Failed { failure; elapsed_s; detail })
      | _ -> Error "malformed failed reply")
  | Some "overloaded" -> (
      match num "queue_depth" with
      | Some d -> Ok (Overloaded { queue_depth = int_of_float d })
      | None -> Error "malformed overloaded reply")
  | Some "draining" -> Ok Draining
  | Some "invalid" -> (
      match str "msg" with Some msg -> Ok (Invalid msg) | None -> Error "malformed invalid reply")
  | Some "pong" -> Ok Pong
  | Some "health" -> (
      match (num "workers", num "queue_depth", num "in_flight", bool "draining") with
      | Some w, Some d, Some f, Some draining ->
          let states =
            match Json.member "states" j with
            | Some (Json.Arr items) ->
                List.filter_map (function Json.Str s -> Some s | _ -> None) items
            | _ -> []
          in
          let metrics =
            match Json.member "metrics" j with
            | Some (Json.Obj fields) ->
                List.filter_map
                  (fun (name, v) -> Option.map (fun v -> (name, v)) (Json.to_number v))
                  fields
            | _ -> []
          in
          let quant name = match num name with Some v -> v | None -> nan in
          Ok
            (Health_reply
               {
                 live_workers = int_of_float w;
                 h_queue_depth = int_of_float d;
                 in_flight = int_of_float f;
                 draining;
                 uptime_s = (match num "uptime_s" with Some s -> s | None -> 0.);
                 states;
                 lat_n = (match num "lat_n" with Some n -> int_of_float n | None -> 0);
                 lat_p50 = quant "p50";
                 lat_p95 = quant "p95";
                 lat_p99 = quant "p99";
                 h_metrics = metrics;
               })
      | _ -> Error "malformed health reply")
  | Some "audit_failed" -> (
      match (bool "cached_sat", bool "fresh_sat") with
      | Some cached_sat, Some fresh_sat -> Ok (Audit_failed { cached_sat; fresh_sat })
      | _ -> Error "malformed audit_failed reply")
  | Some r -> Error ("unknown reply kind: " ^ r)
  | None -> Error "reply lacks an r field"

(* ------------------------------------------------------- job result *)

type wresult =
  | W_sat of bool
  | W_timeout
  | W_memout
  | W_cert_failed of string

type wreply = {
  result : wresult;
  w_elapsed_s : float;
  cert_blob : string option;  (** the rendered certificate on a certifying solve *)
}

let wresult_to_json = function
  | W_sat b -> Json.Str (if b then "sat" else "unsat")
  | W_timeout -> Json.Str "timeout"
  | W_memout -> Json.Str "memout"
  | W_cert_failed msg -> Json.Obj [ ("cert_failed", Json.Str msg) ]

let wresult_of_json = function
  | Json.Str "sat" -> Ok (W_sat true)
  | Json.Str "unsat" -> Ok (W_sat false)
  | Json.Str "timeout" -> Ok W_timeout
  | Json.Str "memout" -> Ok W_memout
  | Json.Obj _ as o -> (
      match Json.member "cert_failed" o with
      | Some (Json.Str msg) -> Ok (W_cert_failed msg)
      | _ -> Error "malformed worker result")
  | _ -> Error "malformed worker result"

let wreply_to_json { result; w_elapsed_s; cert_blob } =
  Json.Obj
    ([ ("result", wresult_to_json result); ("elapsed_s", Json.Num w_elapsed_s) ]
    @ match cert_blob with Some c -> [ ("cert", Json.Str c) ] | None -> [])

let wreply_of_json j =
  match (Option.map wresult_of_json (Json.member "result" j), Json.member "elapsed_s" j) with
  | Some (Ok result), Some e -> (
      match Json.to_number e with
      | Some w_elapsed_s ->
          let cert_blob =
            match Json.member "cert" j with Some (Json.Str c) -> Some c | _ -> None
          in
          Ok { result; w_elapsed_s; cert_blob }
      | None -> Error "malformed worker reply fields")
  | _ -> Error "malformed worker reply"
