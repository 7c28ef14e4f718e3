(* ladder and frontend: one [hqs FILE] process per solve, as a user runs
   it. Rounds over the instances, each in a fresh seeded order, repeat
   while the run's budget lasts.

   An instance's time is the fastest of its rounds. The shared host runs
   in fast and slow phases lasting seconds; the per-instance median
   follows how much of a run fell into slow phases and spread 17% across
   ten seeds on ladder, the per-instance minimum 2-5%. *)

let solve ~(ctx : Ctx.t) ~dir (inst : Instances.t) =
  let r =
    Proc.run ~work:ctx.Ctx.work ~tag:"solve" ctx.Ctx.hqs
      [ Instances.path dir inst; "-t"; "20"; "--metrics" ]
  in
  Ctx.check ctx
    (Ctx.verdict_of_code r.Proc.code = Some inst.Instances.sat)
    "hqs %s: exit %d, expected %s" inst.Instances.id r.Proc.code
    (if inst.Instances.sat then "SAT" else "UNSAT");
  (r.Proc.wall_s, Option.value ~default:0.0 (Proc.metric r.Proc.err "gc.heap_words.peak"))

let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* the heaviest single solve's heap: one [hqs FILE --metrics] each *)
let peak_heap_mb ~ctx ~dir insts =
  mib_of_words (List.fold_left (fun acc i -> Float.max acc (snd (solve ~ctx ~dir i))) 0.0 insts)

let timed ~(ctx : Ctx.t) workload =
  let dir = Filename.concat ctx.Ctx.work "instances" in
  let insts, setup_s = Instances.setup_repeated ~dir workload in
  let rounds =
    Ctx.repeat_for ctx ~min:3 (fun _ ->
        List.map
          (fun inst -> (inst.Instances.id, solve ~ctx ~dir inst))
          (Variant.shuffle ctx.Ctx.rng insts))
  in
  let runs = List.concat rounds in
  let best =
    List.map
      (fun (inst : Instances.t) ->
        let walls =
          List.filter_map
            (fun (id, (w, _)) -> if String.equal id inst.Instances.id then Some w else None)
            runs
        in
        Printf.printf "  %-24s min %.4f s  median %.4f s  MAD %.4f s  n=%d\n" inst.Instances.id
          (Stats.minimum walls) (Stats.median walls) (Stats.mad walls) (List.length walls);
        Stats.minimum walls)
      insts
  in
  let n = List.length runs in
  [
    Ctx.metric ~n:Instances.setups "setup_s" "s" setup_s;
    Ctx.metric ~n "op_s.geomean" "s" (Stats.geomean best);
    Ctx.metric ~n "op_s.tail" "s" (List.fold_left Float.max 0.0 best);
    Ctx.metric ~n "ops_per_s" "1/s"
      (float_of_int (List.length best) /. List.fold_left ( +. ) 0.0 best);
    Ctx.metric ~n "peak_heap_mb" "MiB"
      (mib_of_words (List.fold_left (fun acc (_, (_, h)) -> Float.max acc h) 0.0 runs));
  ]

let traced ~(ctx : Ctx.t) ~trace_path workload =
  let dir = Filename.concat ctx.Ctx.work "instances" in
  let insts, _ = Instances.setup ~dir workload in
  Layers.pass ~ctx ~trace_path insts @ Layers.cert_pass ~ctx ~dir insts
