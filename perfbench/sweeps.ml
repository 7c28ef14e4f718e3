(* sweep: [hqs sweep --journal J -j N] over 100+ tiny instances, so the
   fork, IPC and journal cost of each task sits next to solves of a few
   ms. Passes alternate between -j 1 and -j 2 while the budget lasts;
   each kind's time is its fastest pass (see Solves for why the best of
   N). *)

module Json = Obs.Json

type pass = {
  jobs : int;
  wall : float;
  tasks : int;
  hqs_s : float;  (** sum of HQS solve times *)
  idq_s : float;
  retries : int;
}

let rec field path j =
  match path with [] -> Some j | key :: rest -> Option.bind (Json.member key j) (field rest)

let num path j = Option.bind (field path j) Json.to_number

let run_pass ~(ctx : Ctx.t) ~dir ~index insts ~jobs =
  let journal = Filename.concat ctx.Ctx.work (Printf.sprintf "sweep%d.jsonl" index) in
  let files = List.map (Instances.path dir) insts in
  let r =
    Proc.run ~work:ctx.Ctx.work ~tag:"sweep" ctx.Ctx.hqs
      ([ "sweep"; "--journal"; journal; "-j"; string_of_int jobs; "-t"; "5" ] @ files)
  in
  Ctx.check ctx (r.Proc.code = 0) "hqs sweep -j %d: exit %d (3 = crash or HQS/iDQ disagreement)"
    jobs r.Proc.code;
  let expected = Hashtbl.create 128 in
  List.iter
    (fun (i : Instances.t) -> Hashtbl.replace expected i.Instances.id i.Instances.sat)
    insts;
  let entries = (Exec.Journal.load journal).Exec.Journal.entries in
  Sys.remove journal;
  Ctx.check ctx
    (List.length entries = 2 * List.length insts)
    "hqs sweep -j %d: %d journal entries for %d tasks" jobs (List.length entries)
    (2 * List.length insts);
  let p =
    {
      jobs;
      wall = r.Proc.wall_s;
      tasks = List.length entries;
      hqs_s = 0.0;
      idq_s = 0.0;
      retries = 0;
    }
  in
  List.fold_left
    (fun p (e : Exec.Journal.entry) ->
      let id, solver =
        match String.rindex_opt e.Exec.Journal.task_id '/' with
        | Some k ->
            ( String.sub e.Exec.Journal.task_id 0 k,
              String.sub e.Exec.Journal.task_id (k + 1)
                (String.length e.Exec.Journal.task_id - k - 1) )
        | None -> (e.Exec.Journal.task_id, "")
      in
      let d = e.Exec.Journal.data in
      let verdict = Option.bind (field [ "value"; "outcome"; "o" ] d) Json.to_string in
      let want =
        Option.map (fun sat -> if sat then "SAT" else "UNSAT") (Hashtbl.find_opt expected id)
      in
      Ctx.check ctx
        (Option.is_some want && Option.equal String.equal verdict want)
        "sweep task %s: %s, expected %s" e.Exec.Journal.task_id
        (Option.value ~default:"no verdict" verdict)
        (Option.value ~default:"a known instance" want);
      let t = Option.value ~default:0.0 (num [ "value"; "outcome"; "t" ] d) in
      let attempts = int_of_float (Option.value ~default:1.0 (num [ "attempts" ] d)) in
      let p = { p with retries = p.retries + attempts - 1 } in
      if String.equal solver "hqs" then { p with hqs_s = p.hqs_s +. t }
      else { p with idq_s = p.idq_s +. t })
    p entries

let timed ~(ctx : Ctx.t) workload =
  let dir = Filename.concat ctx.Ctx.work "sweep" in
  let insts, setup_s = Instances.setup_repeated ~dir workload in
  let insts = Variant.shuffle ctx.Ctx.rng insts in
  let pairs =
    Ctx.repeat_for ctx ~min:2 (fun k ->
        let j1 = run_pass ~ctx ~dir ~index:(2 * k) insts ~jobs:1 in
        let j2 = run_pass ~ctx ~dir ~index:((2 * k) + 1) insts ~jobs:2 in
        (j1, j2))
  in
  let best1 = Stats.minimum (List.map (fun (a, _) -> a.wall) pairs) in
  let best2 = Stats.minimum (List.map (fun (_, b) -> b.wall) pairs) in
  let n = 2 * List.length pairs in
  let walls f = String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (f p).wall) pairs) in
  Printf.printf "  %d instances, %d tasks a pass; -j 1 passes %s s; -j 2 passes %s s\n"
    (List.length insts) (2 * List.length insts) (walls fst) (walls snd);
  [
    Ctx.metric ~n:Instances.setups "setup_s" "s" setup_s;
    Ctx.metric ~n "op_s.geomean" "s" (Stats.geomean [ best1; best2 ]);
    Ctx.metric ~n:(List.length pairs) "op_s.tail" "s" best1;
    Ctx.metric ~n:(List.length pairs) "ops_per_s" "1/s"
      (float_of_int (2 * List.length insts) /. best2);
    Ctx.metric ~n:(List.length insts) "peak_heap_mb" "MiB" (Solves.peak_heap_mb ~ctx ~dir insts);
  ]

let pool_metrics ~(ctx : Ctx.t) ~dir insts =
  let j1 = run_pass ~ctx ~dir ~index:0 insts ~jobs:1 in
  let j2 = run_pass ~ctx ~dir ~index:1 insts ~jobs:2 in
  (* the pool's own cost: worker-seconds the solves did not use *)
  let overhead p =
    ((p.wall *. float_of_int p.jobs) -. p.hqs_s -. p.idq_s) /. float_of_int p.tasks
  in
  let m = Ctx.metric ~n:j1.tasks in
  [
    m "sweep_tasks_per_s.j1" "1/s" (float_of_int j1.tasks /. j1.wall);
    m "sweep_tasks_per_s.j2" "1/s" (float_of_int j2.tasks /. j2.wall);
    m "sweep.hqs_s" "s" j1.hqs_s;
    m "sweep.idq_s" "s" j1.idq_s;
    m "exec.overhead_s_per_task.j1" "s" (overhead j1);
    m "exec.overhead_s_per_task.j2" "s" (overhead j2);
    m "exec.retries" "count" (float_of_int (j1.retries + j2.retries));
  ]

let traced ~(ctx : Ctx.t) ~trace_path workload =
  let dir = Filename.concat ctx.Ctx.work "sweep" in
  let insts, _ = Instances.setup ~dir workload in
  let pool = pool_metrics ~ctx ~dir insts in
  pool @ Layers.pass ~ctx ~trace_path insts
