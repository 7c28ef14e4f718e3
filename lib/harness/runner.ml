open Hqs_util

type outcome = Solved of bool * float | Timeout of float | Memout of float | Crash of float
type soundness = Consistent | Disagreement of { hqs_sat : bool; idq_sat : bool }

type result = {
  id : string;
  family : string;
  sat_expected : bool option;
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

let timed ~timeout f =
  let t0 = Budget.now () in
  let budget = Budget.of_seconds timeout in
  match f budget with
  | verdict -> Solved (verdict, Budget.now () -. t0)
  | exception Budget.Timeout -> Timeout (Budget.now () -. t0)
  | exception Budget.Out_of_memory_budget -> Memout (Budget.now () -. t0)
  (* real resource exhaustion inside the solver is recorded, not fatal:
     one pathological instance must not take down a whole sweep *)
  | exception Stdlib.Out_of_memory -> Memout (Budget.now () -. t0)
  | exception Stack_overflow -> Crash (Budget.now () -. t0)

let run_hqs ?(config = Hqs.default_config) ~timeout ~node_limit pcnf =
  let config = { config with Hqs.node_limit = Some node_limit } in
  let captured = ref None in
  let outcome =
    timed ~timeout (fun budget ->
        let v, stats = Hqs.solve_pcnf ~config ~budget pcnf in
        captured := Some stats;
        v = Hqs.Sat)
  in
  (outcome, !captured)

(* the artifact pair under [dir]: the exact instance bytes the
   certificate fingerprints, so [certcheck INSTANCE CERT] works without
   any other file from the sweep *)
let cert_paths ~dir ~id =
  let slug = String.map (fun c -> if c = '/' then '_' else c) id in
  (Filename.concat dir (slug ^ ".dqdimacs"), Filename.concat dir (slug ^ ".cert"))

let run_hqs_certified ?(config = Hqs.default_config) ~timeout ~node_limit ~dir ~id pcnf =
  let config = { config with Hqs.node_limit = Some node_limit } in
  let instance_text = Dqbf.Pcnf.to_string pcnf in
  let captured = ref None in
  let cert_path = ref None in
  let outcome =
    timed ~timeout (fun budget ->
        let v, cert, _model, stats =
          Hqs.solve_pcnf_certified ~config ~budget ~instance_text pcnf
        in
        captured := Some stats;
        let inst_file, cert_file = cert_paths ~dir ~id in
        Out_channel.with_open_bin inst_file (fun oc ->
            Out_channel.output_string oc instance_text);
        Cert.write_file cert_file cert;
        cert_path := Some cert_file;
        v = Hqs.Sat)
  in
  (outcome, !captured, !cert_path)

let run_idq ~timeout ~node_limit pcnf =
  timed ~timeout (fun budget -> fst (Idq.solve_pcnf ~budget ~node_limit pcnf))
