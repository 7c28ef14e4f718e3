open Runner

type summary = {
  solved : int;
  sat : int;
  unsat : int;
  to_ : int;
  mo : int;
  crash : int;
  common_time : float;
}

let summarize pick other results =
  List.fold_left
    (fun acc r ->
      let mine = pick r and theirs = other r in
      match mine with
      | Solved (v, t) ->
          {
            acc with
            solved = acc.solved + 1;
            sat = (acc.sat + if v then 1 else 0);
            unsat = (acc.unsat + if v then 0 else 1);
            common_time = (acc.common_time +. if is_solved theirs then t else 0.0);
          }
      | Timeout _ -> { acc with to_ = acc.to_ + 1 }
      | Memout _ -> { acc with mo = acc.mo + 1 }
      | Crash _ -> { acc with crash = acc.crash + 1 })
    { solved = 0; sat = 0; unsat = 0; to_ = 0; mo = 0; crash = 0; common_time = 0.0 }
    results

let families results =
  List.fold_left (fun acc r -> if List.mem r.family acc then acc else acc @ [ r.family ]) [] results

let degraded r = match r.hqs_stats with Some s -> s.Hqs.degraded | None -> []
let degraded_count rs = List.length (List.filter (fun r -> degraded r <> []) rs)
let disagreements rs = List.filter (fun r -> r.soundness <> Consistent) rs

let is_crash = function Crash _ -> true | Solved _ | Timeout _ | Memout _ -> false
let crashed rs = List.filter (fun r -> is_crash r.hqs || is_crash r.idq) rs

let table1 results =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%-10s %5s | %6s %11s %8s %9s %10s %5s | %6s %11s %8s %9s %10s" "family" "#inst" "HQS"
    "(SAT/UNS)" "unsolv" "(TO/MO)" "time" "degr" "iDQ" "(SAT/UNS)" "unsolv" "(TO/MO)" "time";
  line "%s" (String.make 124 '-');
  let row name rs =
    let h = summarize (fun r -> r.hqs) (fun r -> r.idq) rs in
    let i = summarize (fun r -> r.idq) (fun r -> r.hqs) rs in
    line "%-10s %5d | %6d %11s %8d %9s %10.2f %5d | %6d %11s %8d %9s %10.2f" name (List.length rs)
      h.solved
      (Printf.sprintf "(%d/%d)" h.sat h.unsat)
      (h.to_ + h.mo + h.crash)
      (Printf.sprintf "(%d/%d)" h.to_ h.mo)
      h.common_time (degraded_count rs) i.solved
      (Printf.sprintf "(%d/%d)" i.sat i.unsat)
      (i.to_ + i.mo + i.crash)
      (Printf.sprintf "(%d/%d)" i.to_ i.mo)
      i.common_time
  in
  List.iter (fun fam -> row fam (List.filter (fun r -> r.family = fam) results)) (families results);
  line "%s" (String.make 124 '-');
  row "total" results;
  (match disagreements results with
  | [] -> ()
  | bad ->
      line "SOUNDNESS ALARM: %d verdict disagreement(s): %s" (List.length bad)
        (String.concat ", " (List.map (fun r -> r.id) bad)));
  (match crashed results with
  | [] -> ()
  | bad ->
      line "CRASH: %d instance(s) quarantined after exhausting retries: %s" (List.length bad)
        (String.concat ", " (List.map (fun r -> r.id) bad)));
  Buffer.contents buf

let fig4 ?(timeout = 5.0) results =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# Fig. 4 data: one point per instance (x = iDQ, y = HQS); TO/MO on the rails";
  line "%-28s %-10s %10s %10s" "instance" "family" "idq_s" "hqs_s";
  let show = function
    | Solved (_, t) -> Printf.sprintf "%10.3f" t
    | Timeout _ -> "        TO"
    | Memout _ -> "        MO"
    | Crash _ -> "        CR"
  in
  List.iter (fun r -> line "%-28s %-10s %s %s" r.id r.family (show r.idq) (show r.hqs)) results;
  (* ASCII log-log scatter *)
  let w = 56 and h = 24 in
  let lo = 1e-4 in
  let rail_factor = 3.0 in
  let hi = timeout *. rail_factor in
  let coord t axis_len =
    let t = max t lo in
    let frac = log (t /. lo) /. log (hi /. lo) in
    let c = int_of_float (frac *. float_of_int (axis_len - 1)) in
    max 0 (min (axis_len - 1) c)
  in
  let value_of = function
    | Solved (_, t) -> max t lo
    | Timeout _ | Memout _ | Crash _ -> hi (* rail *)
  in
  let grid = Array.make_matrix h w ' ' in
  (* diagonal *)
  for i = 0 to min w h - 1 do
    grid.(h - 1 - (i * h / w)).(i) <- '.'
  done;
  List.iter
    (fun r ->
      let xc = coord (value_of r.idq) w in
      let yc = coord (value_of r.hqs) h in
      let cell = grid.(h - 1 - yc).(xc) in
      grid.(h - 1 - yc).(xc) <- (if cell = '*' || cell = '#' then '#' else '*'))
    results;
  line "";
  line "  HQS time ^  (log scale %.0e .. TO/MO rail)" lo;
  Array.iter (fun row -> line "  |%s" (String.init w (Array.get row))) grid;
  line "  +%s> iDQ time" (String.make w '-');
  line "  points below the diagonal: HQS faster; '#': several instances";
  Buffer.contents buf

let headline results =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let hqs_solved = List.filter (fun r -> is_solved r.hqs) results in
  let idq_solved = List.filter (fun r -> is_solved r.idq) results in
  let idq_not_hqs = List.filter (fun r -> not (is_solved r.hqs)) idq_solved in
  line "instances: %d" (List.length results);
  line "solved by HQS: %d, by iDQ: %d" (List.length hqs_solved) (List.length idq_solved);
  line "solved by iDQ but not HQS: %d (paper: 0)" (List.length idq_not_hqs);
  if idq_solved <> [] then
    line "HQS solves %.0f%% more instances than iDQ (paper: ~50%% more)"
      (100.0
      *. (float_of_int (List.length hqs_solved) /. float_of_int (List.length idq_solved) -. 1.0));
  let sub_second l pick =
    List.length (List.filter (fun r -> match pick r with Solved (_, t) -> t < 1.0 | _ -> false) l)
  in
  if hqs_solved <> [] then
    line "HQS solved in < 1 s: %d of %d (paper: ~90%%); iDQ: %d of %d (paper: ~49%%)"
      (sub_second hqs_solved (fun r -> r.hqs))
      (List.length hqs_solved)
      (sub_second idq_solved (fun r -> r.idq))
      (List.length idq_solved);
  let speedups =
    List.filter_map
      (fun r ->
        match (r.hqs, r.idq) with
        | Solved (_, th), Solved (_, ti) when th > 0.0 -> Some (ti /. max th 1e-4)
        | _ -> None)
      results
  in
  (match speedups with
  | [] -> ()
  | l ->
      let max_s = List.fold_left max neg_infinity l in
      line "max speedup of HQS over iDQ on commonly solved: %.0fx (paper: up to 10^4)" max_s);
  (let d = degraded_count results in
   if d > 0 then line "HQS runs that degraded an accelerator (still solved/counted): %d" d);
  (match disagreements results with
  | [] -> ()
  | bad -> line "SOUNDNESS ALARM: verdict disagreements: %d" (List.length bad));
  Buffer.contents buf

let outcome_cell = function
  | Solved (true, _) -> "SAT"
  | Solved (false, _) -> "UNSAT"
  | Timeout _ -> "TO"
  | Memout _ -> "MO"
  | Crash _ -> "CRASH"

let time_cell o = Printf.sprintf "%.3f" (time_of o)

let verdict_of = function
  | Solved (v, _) -> Some (if v then Hqs.Sat else Hqs.Unsat)
  | Timeout _ | Memout _ | Crash _ -> None

(* executor columns: [outcome] classifies the HQS run *)
let executor_columns =
  [
    ( "outcome",
      fun r ->
        match r.hqs with
        | Solved _ -> "solved"
        | Timeout _ -> "timeout"
        | Memout _ -> "memout"
        | Crash _ -> "crash" );
    ("attempts", fun r -> string_of_int r.attempts);
    ("worker_pid", fun r -> match r.worker_pid with Some p -> string_of_int p | None -> "");
  ]

(* a declared per-solve statistic; empty for a run that left no stats *)
let stat_column (name, stat) =
  ( name,
    fun r ->
      match r.hqs_stats with
      | None -> ""
      | Some s -> Hqs.stat_cell ~config:r.hqs_config ~verdict:(verdict_of r.hqs) s stat )

(* stable CSV schema: the base columns, then every statistic of
   [Hqs.stat_columns] in its declared order, then the certificate path.
   The executor block was appended when the statistics still ended at
   [hqs_checks], so it keeps that byte position in front of
   [hqs_dep_scheme]. *)
let csv_columns =
  [
    ("id", fun r -> r.id);
    ("family", fun r -> r.family);
    ("hqs_outcome", fun r -> outcome_cell r.hqs);
    ("hqs_time", fun r -> time_cell r.hqs);
    ("idq_outcome", fun r -> outcome_cell r.idq);
    ("idq_time", fun r -> time_cell r.idq);
    ("hqs_degraded", fun r -> match degraded r with [] -> "-" | l -> String.concat ";" l);
    ("check", fun r -> match r.soundness with Consistent -> "ok" | Disagreement _ -> "DISAGREE");
  ]
  @ List.concat_map
      (fun ((name, _) as c) ->
        (if name = "hqs_dep_scheme" then executor_columns else []) @ [ stat_column c ])
      Hqs.stat_columns
  @ [ ("cert", fun r -> Option.value r.cert_path ~default:"") ]

let csv results =
  let buf = Buffer.create 1024 in
  let line cells =
    Buffer.add_string buf (String.concat "," cells);
    Buffer.add_char buf '\n'
  in
  line (List.map fst csv_columns);
  List.iter (fun r -> line (List.map (fun (_, cell) -> cell r) csv_columns)) results;
  Buffer.contents buf
