(* Zero-dependency observability: hierarchical tracing spans and a
   metrics registry.

   Tracing is off by default and gated by one mutable flag: a disabled
   [Span.with_] is a single branch plus the call to the thunk. Metrics
   are always-on plain field updates (an [int]/[float] store each), cheap
   enough for hot paths like the AIG structural-hash lookup. *)

(* span timestamps share the Budget clock: monotonic, so traces from a
   run that straddles an NTP step still have ordered timestamps *)
let now_s () = Hqs_util.Budget.now ()

(* ------------------------------------------------------------ attributes *)

type value = Int of int | Float of float | Str of string | Bool of bool

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_float f =
  (* JSON has no nan/inf literals; quote them instead of emitting garbage *)
  if Float.is_finite f then
    let s = Printf.sprintf "%.17g" f in
    let short = Printf.sprintf "%.6g" f in
    if float_of_string short = f then short else s
  else Printf.sprintf "\"%s\"" (if Float.is_nan f then "nan" else if f > 0.0 then "inf" else "-inf")

let json_of_value = function
  | Int i -> string_of_int i
  | Float f -> json_of_float f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> if b then "true" else "false"

(* --------------------------------------------------------------- metrics *)

module Metrics = struct
  type kind = Counter | Gauge | Histogram
  type counter = { mutable c : int }
  type gauge = { mutable g : float; mutable g_set : bool }

  type histogram = {
    mutable n : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
  }

  type entry = C of counter | G of gauge | H of histogram

  let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

  let register name mk unpack =
    match Hashtbl.find_opt registry name with
    | Some e -> (
        match unpack e with
        | Some x -> x
        | None -> invalid_arg ("Obs.Metrics: " ^ name ^ " already registered as another kind"))
    | None ->
        let x, e = mk () in
        Hashtbl.replace registry name e;
        x

  let counter name =
    register name
      (fun () ->
        let c = { c = 0 } in
        (c, C c))
      (function C c -> Some c | G _ | H _ -> None)

  let gauge name =
    register name
      (fun () ->
        let g = { g = 0.0; g_set = false } in
        (g, G g))
      (function G g -> Some g | C _ | H _ -> None)

  let histogram name =
    register name
      (fun () ->
        let h = { n = 0; sum = 0.0; mn = 0.0; mx = 0.0 } in
        (h, H h))
      (function H h -> Some h | C _ | G _ -> None)

  let incr ?(by = 1) c = c.c <- c.c + by
  let counter_value c = c.c

  let set g v =
    g.g <- v;
    g.g_set <- true

  let set_max g v = if (not g.g_set) || v > g.g then set g v
  let gauge_value g = g.g

  let observe h v =
    if h.n = 0 then begin
      h.mn <- v;
      h.mx <- v
    end
    else begin
      if v < h.mn then h.mn <- v;
      if v > h.mx then h.mx <- v
    end;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v

  type hist_stats = { count : int; sum : float; min_ : float; max_ : float }

  let histogram_stats h = { count = h.n; sum = h.sum; min_ = h.mn; max_ = h.mx }

  (* rolling windows: the last [capacity] observations in a ring buffer,
     with nearest-rank quantiles. A deliberately separate registry:
     windows never appear in [snapshot]/[delta], so cross-process frames
     and BENCH files keep their exact shape *)
  type window = { cap : int; wbuf : float array; mutable widx : int; mutable wn : int }

  let windows : (string, window) Hashtbl.t = Hashtbl.create 8

  let window ?(capacity = 512) name =
    if capacity <= 0 then invalid_arg "Obs.Metrics.window: capacity must be positive";
    match Hashtbl.find_opt windows name with
    | Some w -> w
    | None ->
        let w = { cap = capacity; wbuf = Array.make capacity 0.0; widx = 0; wn = 0 } in
        Hashtbl.replace windows name w;
        w

  let wobserve w v =
    w.wbuf.(w.widx) <- v;
    w.widx <- (w.widx + 1) mod w.cap;
    if w.wn < w.cap then w.wn <- w.wn + 1

  let window_count w = w.wn

  let quantile w q =
    if w.wn = 0 then nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let a = Array.sub w.wbuf 0 w.wn in
      Array.sort Float.compare a;
      let rank = int_of_float (Float.ceil (q *. float_of_int w.wn)) in
      a.(Stdlib.max 0 (Stdlib.min (w.wn - 1) (rank - 1)))
    end

  type sample = { name : string; kind : kind; v : float }

  let snapshot () =
    let acc = ref [] in
    Hashtbl.iter
      (fun name entry ->
        match entry with
        | C c -> acc := { name; kind = Counter; v = float_of_int c.c } :: !acc
        | G g -> acc := { name; kind = Gauge; v = g.g } :: !acc
        | H h ->
            acc :=
              { name = name ^ ".count"; kind = Histogram; v = float_of_int h.n }
              :: { name = name ^ ".sum"; kind = Histogram; v = h.sum }
              :: { name = name ^ ".min"; kind = Histogram; v = h.mn }
              :: { name = name ^ ".max"; kind = Histogram; v = h.mx }
              :: !acc)
      registry;
    List.sort (fun a b -> String.compare a.name b.name) !acc

  let delta ~before ~after =
    let base = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace base s.name s.v) before;
    List.map
      (fun s ->
        match s.kind with
        | Gauge -> s (* a gauge is a level, not a flow: report it as-is *)
        | Counter | Histogram -> (
            match Hashtbl.find_opt base s.name with
            | Some v0 ->
                (* histogram min/max are not monotonic; keep the absolute *)
                if
                  String.ends_with ~suffix:".min" s.name
                  || String.ends_with ~suffix:".max" s.name
                then s
                else { s with v = s.v -. v0 }
            | None -> s))
      after

  let to_assoc samples = List.map (fun s -> (s.name, s.v)) samples

  let find samples name =
    List.find_map (fun s -> if String.equal s.name name then Some s.v else None) samples

  let reset_all () =
    Hashtbl.iter
      (fun _ entry ->
        match entry with
        | C c -> c.c <- 0
        | G g ->
            g.g <- 0.0;
            g.g_set <- false
        | H h ->
            h.n <- 0;
            h.sum <- 0.0;
            h.mn <- 0.0;
            h.mx <- 0.0)
      registry;
    Hashtbl.iter
      (fun _ w ->
        w.widx <- 0;
        w.wn <- 0)
      windows

  let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

  let kind_of_name = function
    | "counter" -> Some Counter
    | "gauge" -> Some Gauge
    | "histogram" -> Some Histogram
    | _ -> None

  (* child -> parent merge over a process boundary: a forked sweep worker
     sends its per-task snapshot delta; the supervisor folds it into its
     own registry so sweep-level metric output aggregates every worker *)
  let absorb samples =
    (* histogram instruments are flattened to 4 series per name in a
       snapshot; regroup them so the merge updates one instrument *)
    let hists : (string, histogram) Hashtbl.t = Hashtbl.create 8 in
    let part name suffix =
      if String.ends_with ~suffix name then
        Some (String.sub name 0 (String.length name - String.length suffix))
      else None
    in
    let hist_part base =
      match Hashtbl.find_opt hists base with
      | Some h -> h
      | None ->
          let h = { n = 0; sum = 0.0; mn = nan; mx = nan } in
          Hashtbl.replace hists base h;
          h
    in
    List.iter
      (fun s ->
        match s.kind with
        | Counter -> incr ~by:(int_of_float s.v) (counter s.name)
        | Gauge -> set_max (gauge s.name) s.v
        | Histogram -> (
            match
              ( part s.name ".count",
                part s.name ".sum",
                part s.name ".min",
                part s.name ".max" )
            with
            | Some base, _, _, _ -> (hist_part base).n <- int_of_float s.v
            | _, Some base, _, _ -> (hist_part base).sum <- s.v
            | _, _, Some base, _ -> (hist_part base).mn <- s.v
            | _, _, _, Some base -> (hist_part base).mx <- s.v
            | None, None, None, None -> ()))
      samples;
    Hashtbl.iter
      (fun base part ->
        if part.n > 0 then begin
          let h = histogram base in
          if h.n = 0 then begin
            h.mn <- part.mn;
            h.mx <- part.mx
          end
          else begin
            if part.mn < h.mn then h.mn <- part.mn;
            if part.mx > h.mx then h.mx <- part.mx
          end;
          h.n <- h.n + part.n;
          h.sum <- h.sum +. part.sum
        end)
      hists
end

(* ------------------------------------------------------------------- json *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when Char.equal c d -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.equal (String.sub s !pos (String.length word)) word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | None -> fail "unterminated escape"
            | Some c ->
                advance ();
                (match c with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'n' -> Buffer.add_char buf '\n'
                | 'r' -> Buffer.add_char buf '\r'
                | 't' -> Buffer.add_char buf '\t'
                | 'u' ->
                    if !pos + 4 > n then fail "truncated \\u escape";
                    let hex = String.sub s !pos 4 in
                    String.iter
                      (fun h ->
                        match h with
                        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                        | _ -> fail "bad \\u escape")
                      hex;
                    pos := !pos + 4;
                    (* validation-grade decoding: a replacement char keeps
                       the value printable without a full UTF-8 encoder *)
                    Buffer.add_char buf '?'
                | _ -> fail "bad escape");
                loop ())
        | Some c when Char.code c < 0x20 -> fail "raw control character in string"
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match float_of_string_opt text with Some f -> f | None -> fail ("bad number " ^ text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if (match peek () with Some '}' -> true | _ -> false) then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if (match peek () with Some ']' -> true | _ -> false) then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  (* the writer is the dual of [parse] and canonical (a fixed rendering
     per value), so journal checksums computed over [to_string] survive a
     parse/serialize round trip *)
  let render v =
    let buf = Buffer.create 256 in
    let rec write = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f -> Buffer.add_string buf (json_of_float f)
      | Str s ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (json_escape s);
          Buffer.add_char buf '"'
      | Arr l ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              write x)
            l;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              Buffer.add_string buf (json_escape k);
              Buffer.add_string buf "\":";
              write x)
            fields;
          Buffer.add_char buf '}'
    in
    write v;
    Buffer.contents buf

  let member key = function
    | Obj fields -> List.find_map (fun (k, v) -> if String.equal k key then Some v else None) fields
    | Null | Bool _ | Num _ | Str _ | Arr _ -> None

  let to_list = function Arr l -> Some l | Null | Bool _ | Num _ | Str _ | Obj _ -> None
  let to_string = function Str s -> Some s | Null | Bool _ | Num _ | Arr _ | Obj _ -> None
  let to_number = function Num f -> Some f | Null | Bool _ | Str _ | Arr _ | Obj _ -> None
end

(* ---------------------------------------------------------------- tracing *)

type ph = Begin | End | Instant

type event = { name : string; ph : ph; ts_us : float; tid : int; attrs : (string * value) list }

(* one global trace state: [on] is the single branch every disabled
   instrumentation point pays. [foreign] holds event batches recorded in
   other processes (forked workers), keyed by their pid, merged into the
   Chrome output as separate process rows. *)
type trace_state = {
  mutable on : bool;
  mutable rev_events : event list;
  mutable count : int;
  mutable dropped : int;
  mutable t0 : float;
  mutable stack : (string * float) list; (* open spans, innermost first, with begin ts *)
  mutable pid : int;
  mutable foreign : (int * event list) list; (* newest batch first *)
  mutable truncated : bool;
}

let st =
  {
    on = false;
    rev_events = [];
    count = 0;
    dropped = 0;
    t0 = 0.0;
    stack = [];
    pid = 0;
    foreign = [];
    truncated = false;
  }

(* a runaway trace must not OOM the solve it is observing *)
let max_events = 2_000_000

let push ev =
  if st.count >= max_events then st.dropped <- st.dropped + 1
  else begin
    st.rev_events <- ev :: st.rev_events;
    st.count <- st.count + 1
  end

module Trace = struct
  type nonrec ph = ph = Begin | End | Instant

  type nonrec event = event = {
    name : string;
    ph : ph;
    ts_us : float;
    tid : int;
    attrs : (string * value) list;
  }

  let enabled () = st.on

  let reset () =
    st.on <- false;
    st.rev_events <- [];
    st.count <- 0;
    st.dropped <- 0;
    st.stack <- [];
    st.foreign <- [];
    st.truncated <- false

  let start () =
    reset ();
    st.t0 <- now_s ();
    st.pid <- Unix.getpid ();
    st.on <- true

  let stop () = st.on <- false
  let events () = List.rev st.rev_events
  let dropped () = st.dropped
  let depth () = List.length st.stack
  let truncated () = st.truncated

  (* called first thing in a freshly forked worker: keep [on] and the
     clock origin (the Budget clock is CLOCK_MONOTONIC, machine-wide, so
     child timestamps merge directly into the parent's timeline) but drop
     the parent's buffered events and open-span stack, which belong to
     the parent's row of the merged trace *)
  let fork_child () =
    st.rev_events <- [];
    st.count <- 0;
    st.dropped <- 0;
    st.stack <- [];
    st.foreign <- [];
    st.truncated <- false;
    st.pid <- Unix.getpid ()

  (* stack-free event emission for code that multiplexes overlapping
     logical tasks (the sweep supervisor runs [jobs] tasks at once, one
     [tid] row each) where [Span.with_]'s strict nesting cannot apply *)
  let emit ?(tid = 1) ?(attrs = []) name ph =
    if st.on then push { name; ph; ts_us = (now_s () -. st.t0) *. 1e6; tid; attrs }

  let ph_label = function Begin -> "B" | End -> "E" | Instant -> "i"
  let ph_of_label = function "B" -> Some Begin | "E" -> Some End | "i" -> Some Instant | _ -> None

  let value_to_json = function
    | Int i -> Json.Num (float_of_int i)
    | Float f -> Json.Num f
    | Str s -> Json.Str s
    | Bool b -> Json.Bool b

  let value_of_json = function
    | Json.Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then Int (int_of_float f) else Float f
    | Json.Str s -> Str s
    | Json.Bool b -> Bool b
    | Json.Null | Json.Arr _ | Json.Obj _ -> Str "?"

  let events_to_json evs =
    Json.Arr
      (List.map
         (fun ev ->
           let base =
             [
               ("n", Json.Str ev.name);
               ("p", Json.Str (ph_label ev.ph));
               ("t", Json.Num ev.ts_us);
             ]
           in
           let tid = if ev.tid = 1 then [] else [ ("tid", Json.Num (float_of_int ev.tid)) ] in
           let attrs =
             if ev.attrs = [] then []
             else [ ("a", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) ev.attrs)) ]
           in
           Json.Obj (base @ tid @ attrs))
         evs)

  (* best-effort decode: malformed entries are skipped, not fatal — the
     batch may come from a worker killed mid-write *)
  let events_of_json j =
    match Json.to_list j with
    | None -> []
    | Some items ->
        List.filter_map
          (fun it ->
            match (Json.member "n" it, Json.member "p" it, Json.member "t" it) with
            | Some (Json.Str name), Some (Json.Str p), Some (Json.Num ts) ->
                Option.map
                  (fun ph ->
                    let tid =
                      match Json.member "tid" it with
                      | Some (Json.Num t) -> int_of_float t
                      | _ -> 1
                    in
                    let attrs =
                      match Json.member "a" it with
                      | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, value_of_json v)) kvs
                      | _ -> []
                    in
                    { name; ph; ts_us = ts; tid; attrs })
                  (ph_of_label p)
            | _ -> None)
          items

  (* merge a batch recorded in another process under its own pid row.
     Unbalanced Begin events — the worker died by signal mid-span — get
     synthesized End events at the batch's horizon so the merged file is
     well-formed, and the whole trace is flagged truncated instead of
     being written torn. *)
  let inject ~pid ?(dropped = 0) ?(truncated = false) evs =
    st.dropped <- st.dropped + dropped;
    if truncated then st.truncated <- true;
    let max_ts = List.fold_left (fun acc ev -> Float.max acc ev.ts_us) 0.0 evs in
    let stacks : (int, (string * event) list ref) Hashtbl.t = Hashtbl.create 4 in
    let stack_of tid =
      match Hashtbl.find_opt stacks tid with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.replace stacks tid r;
          r
    in
    List.iter
      (fun ev ->
        match ev.ph with
        | Begin ->
            let r = stack_of ev.tid in
            r := (ev.name, ev) :: !r
        | End -> (
            let r = stack_of ev.tid in
            match !r with (n, _) :: rest when String.equal n ev.name -> r := rest | _ -> ())
        | Instant -> ())
      evs;
    let repaired = ref [] in
    Hashtbl.iter
      (fun tid r ->
        List.iter
          (fun (name, _) ->
            st.truncated <- true;
            repaired :=
              { name; ph = End; ts_us = max_ts; tid; attrs = [ ("truncated", Bool true) ] }
              :: !repaired)
          !r)
      stacks;
    let batch = evs @ List.rev !repaired in
    if batch <> [] then st.foreign <- (pid, batch) :: st.foreign

  let event_json ~pid ev =
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"hqs\",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d"
         (json_escape ev.name) (ph_label ev.ph) (json_of_float ev.ts_us) pid ev.tid);
    (match ev.ph with Instant -> Buffer.add_string buf ",\"s\":\"t\"" | Begin | End -> ());
    if ev.attrs <> [] then begin
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape k) (json_of_value v)))
        ev.attrs;
      Buffer.add_char buf '}'
    end;
    Buffer.add_char buf '}';
    Buffer.contents buf

  let to_chrome_json () =
    let own_pid = if st.pid <> 0 then st.pid else 1 in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let emit1 pid ev =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf (event_json ~pid ev)
    in
    List.iter (emit1 own_pid) (events ());
    List.iter (fun (pid, evs) -> List.iter (emit1 pid) evs) (List.rev st.foreign);
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"";
    if st.dropped > 0 || st.truncated then begin
      Buffer.add_string buf ",\"otherData\":{";
      let fields =
        (if st.dropped > 0 then [ Printf.sprintf "\"dropped_events\":%d" st.dropped ] else [])
        @ if st.truncated then [ "\"truncated\":true" ] else []
      in
      Buffer.add_string buf (String.concat "," fields);
      Buffer.add_char buf '}'
    end;
    Buffer.add_string buf "}";
    Buffer.contents buf

  let write_chrome_json path =
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_chrome_json ()))

  type total = { span : string; calls : int; total_s : float; self_s : float }

  let totals () =
    let agg : (string, total) Hashtbl.t = Hashtbl.create 16 in
    let add span dur_s self_s =
      let t =
        Option.value
          ~default:{ span; calls = 0; total_s = 0.0; self_s = 0.0 }
          (Hashtbl.find_opt agg span)
      in
      Hashtbl.replace agg span
        { t with calls = t.calls + 1; total_s = t.total_s +. dur_s; self_s = t.self_s +. self_s }
    in
    (* replay the B/E stream with a stack, accumulating child time so self
       time can be computed; unmatched events are ignored *)
    let stack = ref [] in
    List.iter
      (fun ev ->
        match ev.ph with
        | Instant -> ()
        | Begin -> stack := (ev.name, ev.ts_us, ref 0.0) :: !stack
        | End -> (
            match !stack with
            | (name, ts0, children) :: rest when String.equal name ev.name ->
                stack := rest;
                let dur = (ev.ts_us -. ts0) /. 1e6 in
                add name dur (dur -. !children);
                (match rest with (_, _, pc) :: _ -> pc := !pc +. dur | [] -> ())
            | _ -> ()))
      (events ());
    List.sort
      (fun a b ->
        let c = Float.compare b.total_s a.total_s in
        if c <> 0 then c else String.compare a.span b.span)
      (Hashtbl.fold (fun _ t acc -> t :: acc) agg [])

  let flame_summary () =
    let buf = Buffer.create 512 in
    let tot = totals () in
    let root = List.fold_left (fun acc t -> max acc t.total_s) 0.0 tot in
    Buffer.add_string buf
      (Printf.sprintf "%-24s %8s %12s %12s %7s\n" "span" "calls" "total(ms)" "self(ms)" "%");
    List.iter
      (fun t ->
        Buffer.add_string buf
          (Printf.sprintf "%-24s %8d %12.3f %12.3f %6.1f%%\n" t.span t.calls (t.total_s *. 1e3)
             (t.self_s *. 1e3)
             (if root > 0.0 then 100.0 *. t.total_s /. root else 0.0)))
      tot;
    if st.dropped > 0 then
      Buffer.add_string buf (Printf.sprintf "(%d events dropped past the %d cap)\n" st.dropped max_events);
    Buffer.contents buf
end

(* ----------------------------------------------------------------- spans *)

module Span = struct
  let heap_peak = Metrics.gauge "gc.heap_words.peak"

  (* an optional hook run after every span exit (even with tracing off):
     forked workers install a throttled partial-state flusher here so a
     SIGKILL between spans still leaves a recent metric/trace snapshot on
     the parent's side of the pipe. Hook failures (e.g. the parent died
     and the pipe is gone) must never take the solve down. *)
  let flush_hook : (unit -> unit) option ref = ref None
  let set_flush_hook h = flush_hook := h

  let run_flush_hook () =
    match !flush_hook with
    | None -> ()
    | Some f -> ( try f () with _ -> () (* lint: allow catch-all — isolation barrier *))

  let close name attrs =
    let now = now_s () in
    (match st.stack with (n, _) :: rest when String.equal n name -> st.stack <- rest | _ -> ());
    (* span boundaries double as heap sampling points (Gc.quick_stat is
       O(1): no heap walk) *)
    Metrics.set_max heap_peak (float_of_int (Gc.quick_stat ()).Gc.heap_words);
    push { name; ph = End; ts_us = (now -. st.t0) *. 1e6; tid = 1; attrs };
    run_flush_hook ()

  let with_ name ?(attrs = []) f =
    if not st.on then begin
      match !flush_hook with
      | None -> f ()
      | Some _ -> (
          match f () with
          | v ->
              run_flush_hook ();
              v
          | exception e ->
              run_flush_hook ();
              raise e)
    end
    else begin
      let ts = (now_s () -. st.t0) *. 1e6 in
      push { name; ph = Begin; ts_us = ts; tid = 1; attrs };
      st.stack <- (name, ts) :: st.stack;
      match f () with
      | v ->
          close name [];
          v
      | exception e ->
          close name [ ("raised", Str (Printexc.to_string e)) ];
          raise e
    end

  let event name ?(attrs = []) () =
    if st.on then push { name; ph = Instant; ts_us = (now_s () -. st.t0) *. 1e6; tid = 1; attrs }

  let current () = match st.stack with (name, _) :: _ -> Some name | [] -> None
end

(* ----------------------------------------------------------- fork reinit *)

(* The one fork boundary entry point: every forked worker (sweep child,
   serve pool worker) must call this before doing any work. It drops the
   parent's span buffer and open-span stack (Trace.fork_child), clears
   the parent's partial-state flush hook — an inherited hook would write
   frames onto a pipe fd the child does not own. The deepcheck
   fork-safety analysis sanctions the underlying mutable globals on the
   strength of this reset running on every worker entry path. *)
let fork_reinit () =
  Trace.fork_child ();
  Span.set_flush_hook None
