(* Certified solving: reconstruct Skolem functions (Definition 2) for a
   satisfiable DQBF and check them independently — the "certification
   perspective" of the paper's reference [13] (Balabanov et al.).

   We solve the realizability question for a partial adder, extract the
   Skolem functions of the black-box outputs, verify them against the
   original formula, and then *read the synthesized black boxes back into
   the circuit*: evaluating the implementation with the extracted
   functions must reproduce the specification on every input vector.

   The same solve ([Hqs.run ~model:true ~certify]) also materializes the
   Skolem model as a self-contained certificate artifact (lib/cert),
   which is checked in-process and — when the path of the isolated
   verifier is given as [argv(1)] — written out as text and handed to
   [bin/certcheck], which re-derives the verdict from the artifact and
   the instance bytes alone, sharing no code with the solver (ci.sh
   drives this). *)

module M = Aig.Man
module Fam = Circuit.Families
module N = Circuit.Netlist
module Sk = Dqbf.Skolem

let () =
  let inst = Fam.adder ~bits:3 ~boxes:2 ~fault:false in
  Printf.printf "instance: %s\n" inst.Fam.id;
  let original = Dqbf.Pcnf.to_formula inst.Fam.pcnf in
  let pcnf = inst.Fam.pcnf in
  let instance_text = Dqbf.Pcnf.to_string pcnf in
  match Hqs.run ~model:true ~certify:instance_text pcnf with
  | { Hqs.outcome = Hqs.Verdict Hqs.Sat; model = Some model; cert = Some cert; elapsed_s; _ } ->
      Printf.printf "HQS: REALIZABLE in %.3f s\n" elapsed_s;
      (* 1. independent certificate check *)
      (match Sk.verify original model with
      | Ok () -> print_endline "certificate: Skolem functions VERIFIED against the formula"
      | Error e -> Format.printf "certificate REJECTED: %a@." Sk.pp_failure e);
      (* 2. use the Skolem functions as the black-box implementations:
         the DQBF encodes box outputs as existentials over copies z of the
         box input signals, so s_y *is* the synthesized box logic *)
      let n_primary = inst.Fam.spec.N.num_inputs in
      (* universal variable ids: primary inputs first, then the z copies
         box by box (the encoder allocates them in this order) *)
      let z_of_box =
        let next = ref n_primary in
        Array.map
          (fun box ->
            List.map
              (fun _ ->
                let z = !next in
                incr next;
                z)
              box.N.bb_inputs)
          inst.Fam.impl.N.boxes
      in
      let y_of_box =
        let start = List.fold_left (fun acc zs -> acc + List.length zs) n_primary
            (Array.to_list z_of_box)
        in
        let next = ref start in
        Array.map
          (fun box -> List.map (fun _ -> let y = !next in incr next; y) box.N.bb_outputs)
          inst.Fam.impl.N.boxes
      in
      let box_fn i ins =
        (* evaluate the box's Skolem functions under z := actual inputs *)
        let zs = z_of_box.(i) in
        let env v =
          match List.find_index (fun z -> z = v) zs with
          | Some k -> List.nth ins k
          | None -> false
        in
        List.map (fun y -> Sk.eval model y env) y_of_box.(i)
      in
      let agree = ref true in
      for bits = 0 to (1 lsl n_primary) - 1 do
        let input = Array.init n_primary (fun k -> bits land (1 lsl k) <> 0) in
        if N.eval inst.Fam.spec input <> N.eval_with_boxes inst.Fam.impl ~box_fn input then
          agree := false
      done;
      Printf.printf
        "synthesized boxes plugged into the netlist: match the spec on all %d vectors: %b\n"
        (1 lsl n_primary) !agree;
      (* show the synthesized functions' truth tables *)
      Array.iteri
        (fun i zs ->
          Printf.printf "box %d (inputs %d):\n" i (List.length zs);
          List.iteri
            (fun k y ->
              Printf.printf "  out%d:" k;
              for bits = 0 to (1 lsl List.length zs) - 1 do
                let env v =
                  match List.find_index (fun z -> z = v) zs with
                  | Some j -> bits land (1 lsl j) <> 0
                  | None -> false
                in
                Printf.printf " %d" (if Sk.eval model y env then 1 else 0)
              done;
              print_newline ())
            y_of_box.(i))
        z_of_box;
      (* 3. the externally checkable artifact: emit, check it in-process,
         and (with a verifier path on the command line) check its text
         with the isolated bin/certcheck *)
      Printf.printf "artifact: %s certificate, instance fingerprint %s\n"
        (Cert.status cert) cert.Cert.fingerprint;
      (match Cert.check ~instance_text pcnf cert with
      | Ok () -> print_endline "artifact: checks in-process"
      | Error e -> Printf.printf "artifact REJECTED in-process: %s\n" e);
      if Array.length Sys.argv > 1 then begin
        let certcheck = Sys.argv.(1) in
        let dir = Filename.temp_file "certify" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let inst_file = Filename.concat dir "instance.dqdimacs" in
        let cert_file = Filename.concat dir "skolem.cert" in
        Out_channel.with_open_bin inst_file (fun oc ->
            Out_channel.output_string oc instance_text);
        Cert.write_file cert_file cert;
        let code =
          Sys.command
            (Printf.sprintf "%s %s %s" (Filename.quote certcheck) (Filename.quote inst_file)
               (Filename.quote cert_file))
        in
        Printf.printf "external certcheck: exit %d (0 = verified)\n" code;
        Sys.remove inst_file;
        Sys.remove cert_file;
        Sys.rmdir dir;
        if code <> 0 then exit 1
      end
      else print_endline "external certcheck: skipped (pass its path as argv(1))"
  | _ -> print_endline "unexpected: no SAT verdict with a model and a certificate"
