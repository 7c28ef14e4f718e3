(* State of one benchmark run: where it works, which binaries it drives,
   its seeded randomness, and its correctness tally. *)

let now = Hqs_util.Budget.now

type t = {
  work : string;  (** scratch directory, relative to the checkout root *)
  hqs : string;
  certcheck : string;
  rng : Hqs_util.Rng.t;
  seconds : float;  (** measuring budget of the run *)
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
}

(* one checked operation: a verdict, a reply or a certificate *)
let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failures <- msg :: t.failures;
        Printf.eprintf "perfbench: FAILED %s\n%!" msg
      end)
    fmt

type metric = { name : string; value : float; unit_ : string; n : int  (** samples behind it *) }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

let verdict_of_code = function 10 -> Some true | 20 -> Some false | _ -> None

(* repeat [f] while the run's budget lasts: at least [min] times, and
   another time only if the previous one would still fit *)
let repeat_for t ~min f =
  let t0 = now () in
  let rec go k last acc =
    let elapsed = now () -. t0 in
    if k >= min && elapsed +. last > t.seconds then List.rev acc
    else
      let s = now () in
      let r = f k in
      go (k + 1) (now () -. s) (r :: acc)
  in
  go 0 0.0 []
