open Hqs_util

type outcome = Solved of bool * float | Timeout of float | Memout of float | Crash of float
type soundness = Consistent | Disagreement of { hqs_sat : bool; idq_sat : bool }

type result = {
  id : string;
  family : string;
  hqs : outcome;
  idq : outcome;
  hqs_config : Hqs.config;
  hqs_stats : Hqs.stats option;
  soundness : soundness;
  attempts : int;
  worker_pid : int option;
  cert_path : string option;
}

let is_solved = function Solved _ -> true | Timeout _ | Memout _ | Crash _ -> false
let time_of = function Solved (_, t) | Timeout t | Memout t | Crash t -> t

(* the artifact pair under [dir]: the exact instance bytes the
   certificate fingerprints, so [certcheck INSTANCE CERT] works without
   any other file from the sweep *)
let write_artifacts ~dir ~id ~instance_text cert =
  let stem = Filename.concat dir (String.map (fun c -> if c = '/' then '_' else c) id) in
  Out_channel.with_open_bin (stem ^ ".dqdimacs") (fun oc ->
      Out_channel.output_string oc instance_text);
  Cert.write_file (stem ^ ".cert") cert;
  stem ^ ".cert"

(* the wall budget, under the heap ceiling when one is given *)
let budget ~timeout ~mem_limit_mb =
  let b = Budget.of_seconds timeout in
  match mem_limit_mb with Some mb -> Budget.with_mem_limit_mb b mb | None -> b

let run_hqs ?(config = Hqs.default_config) ?cert_dir ?mem_limit_mb ~id ~timeout ~node_limit pcnf
    =
  let config = { config with Hqs.node_limit = Some node_limit } in
  let instance_text = Option.map (fun _ -> Dqbf.Pcnf.to_string pcnf) cert_dir in
  let t0 = Budget.now () in
  match
    Hqs.run ~config ~budget:(budget ~timeout ~mem_limit_mb) ?certify:instance_text pcnf
  with
  | r ->
      let t = r.Hqs.elapsed_s in
      let outcome =
        match r.Hqs.outcome with
        | Hqs.Verdict v -> Solved (v = Hqs.Sat, t)
        | Hqs.Timeout -> Timeout t
        | Hqs.Memout -> Memout t
      in
      let cert_path =
        match (cert_dir, instance_text, r.Hqs.cert) with
        | Some dir, Some instance_text, Some cert ->
            Some (write_artifacts ~dir ~id ~instance_text cert)
        | _ -> None
      in
      (outcome, Some r.Hqs.stats, cert_path)
  (* one pathological instance must not take down a whole sweep *)
  | exception Stack_overflow -> (Crash (Budget.now () -. t0), None, None)

let run_idq ?mem_limit_mb ~timeout ~node_limit pcnf =
  let t0 = Budget.now () in
  let budget = budget ~timeout ~mem_limit_mb in
  match fst (Idq.solve_pcnf ~budget ~node_limit pcnf) with
  | verdict -> Solved (verdict, Budget.now () -. t0)
  | exception Budget.Timeout -> Timeout (Budget.now () -. t0)
  (* real resource exhaustion inside the solver is recorded, not fatal *)
  | exception (Budget.Out_of_memory_budget | Stdlib.Out_of_memory) -> Memout (Budget.now () -. t0)
  | exception Stack_overflow -> Crash (Budget.now () -. t0)
