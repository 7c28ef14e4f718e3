(* The instances of each workload. Every instance comes from the PEC
   generators, so its verdict is known without solving it: a design
   with an injected fault is unrealizable (UNSAT), one without is SAT. *)

module Fam = Circuit.Families

type t = { id : string; sat : bool; pcnf : Dqbf.Pcnf.t; text : string }

type spec = string * int * int * bool
(** family, size, black boxes, fault *)

let generate ((family, size, boxes, fault) : spec) =
  let inst =
    match family with
    | "adder" -> Fam.adder ~bits:size ~boxes ~fault
    | "bitcell" -> Fam.bitcell ~cells:size ~boxes ~fault
    | "lookahead" -> Fam.lookahead ~cells:size ~boxes ~fault
    | "pec_xor" -> Fam.pec_xor ~length:size ~boxes ~fault
    | "z4" -> Fam.z4 ~add_bits:size ~boxes ~fault
    | "comp" -> Fam.comp ~bits:size ~boxes ~fault
    | "c432" -> Fam.c432 ~groups:3 ~lines:size ~boxes ~fault
    | f -> invalid_arg ("Instances.generate: unknown family " ^ f)
  in
  let pcnf = inst.Fam.pcnf in
  { id = inst.Fam.id; sat = not fault; pcnf; text = Dqbf.Pcnf.to_string pcnf }

let grid families sizes boxes faults : spec list =
  List.concat_map
    (fun fault ->
      List.concat_map
        (fun b -> List.concat_map (fun f -> List.map (fun s -> (f, s, b, fault)) sizes) families)
        boxes)
    faults

(* a generator clips the box count to what the circuit can hold, so two
   specs can name one instance: keep the first of each text *)
let generate_all specs =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun spec ->
      let inst = generate spec in
      if Hashtbl.mem seen inst.text then None
      else begin
        Hashtbl.replace seen inst.text ();
        Some inst
      end)
    specs

(* elimination-bound: one instance per family whose default solve takes
   0.2-1.6 s, nearly all of it in the QBF back end. The c432 step is the
   smallest one whose AIG grows past the FRAIG threshold (50k nodes). *)
let ladder () =
  generate_all
    [
      ("adder", 6, 1, false);
      ("z4", 2, 3, false);
      ("comp", 24, 2, true);
      ("c432", 5, 2, true);
      ("pec_xor", 20, 2, false);
      ("bitcell", 56, 3, true);
    ]

(* front-end-bound: wide CNFs (0.35-1 MB of text) whose prefix is
   nearly linear, so parsing, dependency analysis, inprocessing and the
   AIG build do most of the work. The bitcell arbiter is the one mixed
   instance: about half its time is elimination, as in every larger
   bitcell arbiter. *)
let frontend () =
  generate_all
    [
      ("lookahead", 64, 2, true);
      ("lookahead", 64, 1, true);
      ("lookahead", 56, 2, false);
      ("lookahead", 48, 2, false);
      ("bitcell", 128, 1, false);
    ]

(* serve: 100+ distinct small/medium instances of all seven families,
   each a few ms to solve. The symmetric lookahead arbiters make the
   daemon's canonical labelling, which runs inline in its select loop,
   cost up to 0.5 s a request at n10; one n10 base keeps that stall in
   every epoch without letting it fill the epoch. *)
let serve () =
  generate_all
    (grid [ "adder" ] [ 1; 2; 3 ] [ 1; 2 ] [ false; true ]
    @ grid [ "bitcell" ] [ 2; 4; 6; 8; 10; 12; 14; 16 ] [ 1; 2 ] [ false; true ]
    @ grid [ "lookahead" ] [ 4; 6; 8 ] [ 1; 2 ] [ false; true ]
    @ [ ("lookahead", 10, 1, true) ]
    @ grid [ "pec_xor" ] [ 3; 4; 5; 6; 7; 8 ] [ 1; 2 ] [ false; true ]
    @ grid [ "z4" ] [ 1; 2 ] [ 1; 2 ] [ false; true ]
    @ grid [ "comp" ] [ 2; 4; 6; 8; 10 ] [ 1; 2 ] [ false; true ]
    @ grid [ "c432" ] [ 2; 3 ] [ 1; 2 ] [ false; true ])

(* sweep: the 34 distinct instances on which HQS and iDQ together take
   under 25 ms in a sweep worker, each with two renamed copies
   (Variant.rename under a fixed seed, so every run sweeps the same 102
   files): a task's solve, a few ms, is of the order of the pool's
   per-task cost. iDQ times out on most SAT instances, so the set is
   UNSAT-heavy, like the paper's. *)
let sweep () =
  let distinct =
    generate_all
      (grid [ "bitcell" ] (List.init 22 (fun i -> i + 2)) [ 1 ] [ true ]
      @ grid [ "lookahead" ] [ 3; 4; 10 ] [ 1 ] [ true ]
      @ grid [ "pec_xor" ] [ 3; 4; 6; 7 ] [ 1 ] [ true ]
      @ [
          ("lookahead", 3, 2, true);
          ("bitcell", 7, 2, true);
          ("bitcell", 9, 2, true);
          ("adder", 1, 1, true);
          ("bitcell", 2, 1, false);
        ])
  in
  let rng = Hqs_util.Rng.create 1 in
  let copy k i =
    let pcnf = Variant.rename rng i.pcnf in
    { i with id = Printf.sprintf "%s_r%d" i.id k; pcnf; text = Dqbf.Pcnf.to_string pcnf }
  in
  distinct @ List.map (copy 1) distinct @ List.map (copy 2) distinct

let path dir inst = Filename.concat dir (inst.id ^ ".dqdimacs")

let write dir inst =
  Out_channel.with_open_bin (path dir inst) (fun oc -> Out_channel.output_string oc inst.text)

(* generate a workload's instances and write them to [dir]; returns them
   with the seconds it took *)
let setup ~dir workload =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t0 = Hqs_util.Budget.now () in
  let insts = workload () in
  List.iter (write dir) insts;
  (insts, Hqs_util.Budget.now () -. t0)

(* one set-up time is too noisy to gate on, so [setup_s] is the median
   of [setups] *)
let setups = 9

let setup_repeated ~dir workload =
  let runs = List.init setups (fun _ -> setup ~dir workload) in
  (fst (List.hd runs), Stats.median (List.map snd runs))
