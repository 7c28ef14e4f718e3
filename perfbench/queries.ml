(* serve: [hqs serve --workers 2] with a cache journal, driven by a closed
   loop of two concurrent [hqs query] processes (the machine's core
   count; the protocol uses one connection per request). The stream is
   every distinct serve instance once, which misses the cache, plus two
   seeded look-alike copies of each (Variant.rename), which should hit
   it. Each copy is sent only after its original has been answered and
   otherwise keeps its place in the stream. Epochs, each with a fresh
   daemon, cache and seeded stream, repeat while the budget lasts. A
   request's latency is its fastest over the epochs (see Solves for why
   the best of N); as each epoch orders the stream anew, this also drops
   the waits behind whichever request a seed happened to pair it with. *)

type request = {
  key : string;  (** the instance and which copy, the same in every epoch *)
  file : string;
  sat : bool;
  base : int;
  copy : bool;
  text : string;
}

type reply = {
  req : request;
  latency : float;
  cached : bool;
  elapsed : float;  (** the worker's solve time, from [c elapsed] *)
}

let socket ctx = Filename.concat ctx.Ctx.work "serve.sock"

(* the stream: originals in a seeded order, each followed by up to two
   copies drawn from those still pending; the leftovers close it *)
let stream ~rng ~dir (bases : Instances.t list) =
  let pending = ref [] and out = ref [] in
  let emit r = out := r :: !out in
  let draw () =
    match !pending with
    | [] -> ()
    | l ->
        let k = Hqs_util.Rng.int rng (List.length l) in
        emit (List.nth l k);
        pending := List.filteri (fun i _ -> i <> k) l
  in
  List.iteri
    (fun base (inst : Instances.t) ->
      let original =
        {
          key = inst.Instances.id;
          file = Instances.path dir inst;
          sat = inst.Instances.sat;
          base;
          copy = false;
          text = inst.Instances.text;
        }
      in
      emit original;
      for c = 1 to 2 do
        let text = Dqbf.Pcnf.to_string (Variant.rename rng inst.Instances.pcnf) in
        let file = Filename.concat dir (Printf.sprintf "%s.copy%d.dqdimacs" inst.Instances.id c) in
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
        let key = Printf.sprintf "%s#%d" inst.Instances.id c in
        pending := { original with key; file; copy = true; text } :: !pending
      done;
      draw ();
      draw ())
    (Variant.shuffle rng bases);
  List.iter emit (Variant.shuffle rng !pending);
  List.rev !out

let query ~(ctx : Ctx.t) ~tag args =
  Proc.spawn ~work:ctx.Ctx.work ~tag ctx.Ctx.hqs ([ "query"; "--socket"; socket ctx ] @ args)

(* set-up: instances and their copies on disk, a daemon answering pings *)
let start ~(ctx : Ctx.t) =
  let dir = Filename.concat ctx.Ctx.work "serve" in
  let t0 = Ctx.now () in
  let bases, _ = Instances.setup ~dir Instances.serve in
  let reqs = stream ~rng:ctx.Ctx.rng ~dir bases in
  let cache = Filename.concat ctx.Ctx.work "cache.jsonl" in
  if Sys.file_exists cache then Sys.remove cache;
  let daemon =
    Proc.spawn ~work:ctx.Ctx.work ~tag:"daemon" ctx.Ctx.hqs
      [ "serve"; "--socket"; socket ctx; "--workers"; "2"; "--cache"; cache ]
  in
  let rec ping k =
    if k = 0 then false
    else if (Proc.wait (query ~ctx ~tag:"ping" [ "--ping" ])).Proc.code = 0 then true
    else begin
      Unix.sleepf 0.005;
      ping (k - 1)
    end
  in
  let up = ping 2000 in
  Ctx.check ctx up "hqs serve did not answer a ping within 10 s";
  (daemon, reqs, List.length bases, Ctx.now () -. t0)

let stop ~(ctx : Ctx.t) daemon =
  Proc.signal daemon Sys.sigterm;
  (match Proc.wait daemon with
  | r -> Ctx.check ctx (r.Proc.code = 0) "hqs serve drain: exit %d" r.Proc.code
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> () (* died mid-stream, already counted *));
  if Sys.file_exists (socket ctx) then Sys.remove (socket ctx)

(* "c elapsed 0.004s (cached)" *)
let parse_elapsed out =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | "c" :: "elapsed" :: t :: rest ->
          Option.map
            (fun e -> (e, List.mem "(cached)" rest))
            (float_of_string_opt (String.sub t 0 (max 0 (String.length t - 1))))
      | _ -> None)
    (String.split_on_char '\n' out)

(* the closed loop: at most two queries in flight *)
let run_stream ~(ctx : Ctx.t) ~daemon reqs nbases =
  let answered = Array.make nbases false in
  let slots = Array.make 2 None in
  let queue = Queue.of_seq (List.to_seq reqs) in
  let replies = ref [] in
  let t0 = Ctx.now () in
  let in_flight () = Array.exists Option.is_some slots in
  let ready r = (not r.copy) || answered.(r.base) in
  let rec loop () =
    (* fill free slots in stream order; a copy waits for its original *)
    Array.iteri
      (fun i s ->
        if Option.is_none s && (not (Queue.is_empty queue)) && ready (Queue.peek queue) then begin
          let r = Queue.pop queue in
          slots.(i) <- Some (r, query ~ctx ~tag:(Printf.sprintf "client%d" i) [ r.file ])
        end)
      slots;
    if in_flight () then begin
      let pid, status = Proc.wait_any () in
      if pid = daemon.Proc.pid then begin
        Ctx.check ctx false "hqs serve exited during the stream";
        Array.iter (Option.iter (fun (_, c) -> ignore (Proc.wait c))) slots
      end
      else begin
        Array.iteri
          (fun i s ->
            match s with
            | Some (r, c) when c.Proc.pid = pid ->
                slots.(i) <- None;
                let res = Proc.finish c status in
                let elapsed = parse_elapsed res.Proc.out in
                Ctx.check ctx
                  (Ctx.verdict_of_code res.Proc.code = Some r.sat && Option.is_some elapsed)
                  "hqs query %s: exit %d %s" (Filename.basename r.file) res.Proc.code
                  (String.trim res.Proc.err);
                if not r.copy then answered.(r.base) <- true;
                let elapsed, cached = Option.value ~default:(0.0, false) elapsed in
                replies := { req = r; latency = res.Proc.wall_s; cached; elapsed } :: !replies
            | _ -> ())
          slots;
        loop ()
      end
    end
  in
  loop ();
  (List.rev !replies, Ctx.now () -. t0)

let daemon_stats ~(ctx : Ctx.t) =
  let r = Proc.wait (query ~ctx ~tag:"stats" [ "--stats" ]) in
  Ctx.check ctx (r.Proc.code = 0) "hqs query --stats: exit %d" r.Proc.code;
  r.Proc.out

type epoch = {
  setup_s : float;
  reqs : request list;
  replies : reply list;
  wall : float;  (** of the stream *)
  stats : string;  (** the daemon's [--stats] dump after the stream *)
  pings : float list;
}

(* one daemon lifetime; [pings] liveness probes after the stream time
   the client floor every query pays: process start and connect *)
let epoch ~ctx ~pings =
  let daemon, reqs, nbases, setup_s = start ~ctx in
  Fun.protect
    ~finally:(fun () -> stop ~ctx daemon)
    (fun () ->
      let replies, wall = run_stream ~ctx ~daemon reqs nbases in
      let pings =
        List.init pings (fun _ ->
            let r = Proc.wait (query ~ctx ~tag:"ping" [ "--ping" ]) in
            Ctx.check ctx (r.Proc.code = 0) "hqs query --ping: exit %d" r.Proc.code;
            r.Proc.wall_s)
      in
      { setup_s; reqs; replies; wall; stats = daemon_stats ~ctx; pings })

let quantile ~(ctx : Ctx.t) name q xs =
  match Stats.quantile q xs with
  | Some v -> v
  | None ->
      Ctx.check ctx false "%s: %d samples are too few for this percentile" name (List.length xs);
      nan

let timed ~(ctx : Ctx.t) =
  let epochs = Ctx.repeat_for ctx ~min:3 (fun _ -> epoch ~ctx ~pings:0) in
  let replies = List.concat_map (fun e -> e.replies) epochs in
  let best = Hashtbl.create 512 in
  List.iter
    (fun r ->
      let b = Option.value ~default:infinity (Hashtbl.find_opt best r.req.key) in
      Hashtbl.replace best r.req.key (Float.min b r.latency))
    replies;
  let lat = Hashtbl.fold (fun _ l acc -> l :: acc) best [] in
  let n = List.length replies in
  Printf.printf "  %d epochs, %d queries (%d cache hits)\n" (List.length epochs) n
    (List.length (List.filter (fun r -> r.cached) replies));
  let dir = Filename.concat ctx.Ctx.work "serve" in
  [
    Ctx.metric ~n:(List.length epochs) "setup_s" "s"
      (Stats.median (List.map (fun e -> e.setup_s) epochs));
    Ctx.metric ~n "op_s.geomean" "s" (Stats.geomean lat);
    Ctx.metric ~n "op_s.tail" "s" (quantile ~ctx "query latency p95" 0.95 lat);
    Ctx.metric ~n:(List.length epochs) "ops_per_s" "1/s"
      (List.fold_left
         (fun acc e -> Float.max acc (float_of_int (List.length e.replies) /. e.wall))
         0.0 epochs);
    Ctx.metric ~n:(Hashtbl.length best) "peak_heap_mb" "MiB"
      (Solves.peak_heap_mb ~ctx ~dir (Instances.serve ()));
  ]

(* per-request daemon costs the bench times itself, in process, on the
   exact request texts *)
let intake reqs =
  List.map
    (fun r ->
      let t0 = Ctx.now () in
      let pcnf = Dqbf.Pcnf.parse_string r.text in
      let t1 = Ctx.now () in
      ignore (Dqbf.Canon.canonicalize pcnf);
      (t1 -. t0, Ctx.now () -. t1))
    reqs

let layer_metrics ~(ctx : Ctx.t) =
  let { reqs; replies; wall; stats; pings; _ } = epoch ~ctx ~pings:21 in
  let misses = List.filter (fun r -> not r.cached) replies in
  let hits = List.filter (fun r -> r.cached) replies in
  let copies = List.filter (fun r -> r.req.copy) replies in
  let lat = List.map (fun r -> r.latency) in
  let parse, canon = List.split (intake reqs) in
  let stat name = Option.value ~default:0.0 (Proc.metric stats name) in
  let m = Ctx.metric in
  let q name p xs = m ~n:(List.length xs) name "s" (quantile ~ctx name p xs) in
  [
    q "query_miss_s.p50" 0.5 (lat misses);
    q "query_miss_s.p90" 0.9 (lat misses);
    q "query_hit_s.p50" 0.5 (lat hits);
    q "query_hit_s.p95" 0.95 (lat hits);
    m ~n:(List.length replies) "query_per_s" "1/s" (float_of_int (List.length replies) /. wall);
    m ~n:(List.length canon) "serve.canon_s.p50" "s" (Stats.median canon);
    m ~n:(List.length canon) "serve.canon_s.max" "s" (List.fold_left Float.max 0.0 canon);
    m ~n:(List.length parse) "serve.parse_s.p50" "s" (Stats.median parse);
    m ~n:(List.length pings) "query.ping_s.p50" "s" (Stats.median pings);
    q "serve.solve_s.p50" 0.5 (List.map (fun r -> r.elapsed) misses);
    q "serve.overhead_s.p90" 0.9 (List.map (fun r -> r.latency -. r.elapsed) misses);
    m ~n:(List.length copies) "serve.hit_ratio" "ratio"
      (float_of_int (List.length (List.filter (fun r -> r.cached) copies))
      /. float_of_int (List.length copies));
  ]
  @ List.map
      (fun name -> m name "count" (stat name))
      [
        "serve.cache_hits";
        "serve.cache_misses";
        "serve.shed";
        "serve.worker_crashes";
        "serve.timeouts";
      ]

let traced ~(ctx : Ctx.t) ~trace_path =
  let daemon = layer_metrics ~ctx in
  let dir = Filename.concat ctx.Ctx.work "serve" in
  let insts, _ = Instances.setup ~dir Instances.serve in
  daemon @ Layers.pass ~ctx ~trace_path insts
