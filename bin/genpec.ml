(* genpec: emit PEC benchmark instances as DQDIMACS files. *)

open Cmdliner
module Fam = Circuit.Families

let write_instance dir (inst : Fam.instance) =
  let path = Filename.concat dir (inst.Fam.id ^ ".dqdimacs") in
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "c PEC instance %s (family %s)\nc generated by genpec\n" inst.Fam.id
       inst.Fam.family);
  output_string oc (Dqbf.Pcnf.to_string inst.Fam.pcnf);
  close_out oc;
  path

let make_instance family size boxes fault =
  match family with
  | "adder" -> Fam.adder ~bits:size ~boxes ~fault
  | "bitcell" -> Fam.bitcell ~cells:size ~boxes ~fault
  | "lookahead" -> Fam.lookahead ~cells:size ~boxes ~fault
  | "pec_xor" -> Fam.pec_xor ~length:size ~boxes ~fault
  | "z4" -> Fam.z4 ~add_bits:size ~boxes ~fault
  | "comp" -> Fam.comp ~bits:size ~boxes ~fault
  | "c432" -> Fam.c432 ~groups:3 ~lines:size ~boxes ~fault
  | f ->
      Printf.eprintf "unknown family %s (one of: %s)\n" f (String.concat ", " Fam.all_families);
      exit 2

let one family size boxes fault out_dir =
  let inst = make_instance family size boxes fault in
  print_endline (write_instance out_dir inst)

let sweep family sizes boxes out_dir =
  List.iter
    (fun size ->
      List.iter
        (fun k ->
          List.iter
            (fun fault -> print_endline (write_instance out_dir (make_instance family size k fault)))
            [ false; true ])
        boxes)
    sizes

(* scaled-down analogue of the paper's 1820 instances; the SAT/UNSAT mix
   is UNSAT-heavy, as in Table I *)
let suite () =
  let adder =
    List.concat_map
      (fun bits ->
        List.concat_map
          (fun boxes ->
            Fam.adder ~bits ~boxes ~fault:true
            :: (if boxes <= 2 then [ Fam.adder ~bits ~boxes ~fault:false ] else []))
          [ 1; 2; 3 ])
      [ 1; 2; 3; 4 ]
    @ [
        Fam.adder ~bits:5 ~boxes:1 ~fault:true;
        Fam.adder ~bits:5 ~boxes:2 ~fault:true;
        Fam.adder ~bits:5 ~boxes:1 ~fault:false;
        Fam.adder ~bits:5 ~boxes:2 ~fault:false;
      ]
  in
  let chain_family make sizes =
    List.concat_map
      (fun cells ->
        [
          make ~cells ~boxes:1 ~fault:true;
          make ~cells ~boxes:2 ~fault:true;
          make ~cells ~boxes:2 ~fault:false;
        ])
      sizes
    @ [ make ~cells:16 ~boxes:3 ~fault:true; make ~cells:16 ~boxes:3 ~fault:false ]
  in
  let bitcell = chain_family (fun ~cells ~boxes ~fault -> Fam.bitcell ~cells ~boxes ~fault)
      [ 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  let lookahead = chain_family (fun ~cells ~boxes ~fault -> Fam.lookahead ~cells ~boxes ~fault)
      [ 2; 3; 4; 6; 8; 10; 12; 14 ]
  in
  let pec_xor =
    List.concat_map
      (fun length ->
        [ Fam.pec_xor ~length ~boxes:1 ~fault:true; Fam.pec_xor ~length ~boxes:2 ~fault:true ])
      [ 3; 4; 5; 6; 8; 10; 12 ]
    @ List.map (fun length -> Fam.pec_xor ~length ~boxes:2 ~fault:false) [ 3; 4; 5; 6; 8; 10 ]
  in
  let z4 =
    List.concat_map
      (fun add_bits ->
        List.concat_map
          (fun boxes ->
            [ Fam.z4 ~add_bits ~boxes ~fault:true; Fam.z4 ~add_bits ~boxes ~fault:false ])
          [ 1; 2; 3 ])
      [ 1; 2 ]
    @ [
        Fam.z4 ~add_bits:3 ~boxes:1 ~fault:true;
        Fam.z4 ~add_bits:3 ~boxes:1 ~fault:false;
        Fam.z4 ~add_bits:3 ~boxes:2 ~fault:true;
        Fam.z4 ~add_bits:3 ~boxes:2 ~fault:false;
      ]
  in
  let comp =
    List.concat_map
      (fun bits ->
        [ Fam.comp ~bits ~boxes:1 ~fault:true; Fam.comp ~bits ~boxes:2 ~fault:true ])
      [ 2; 4; 6; 8; 10; 12 ]
    @ List.map (fun bits -> Fam.comp ~bits ~boxes:2 ~fault:false) [ 2; 4; 6; 8; 10 ]
    @ [
        Fam.comp ~bits:12 ~boxes:3 ~fault:false;
        Fam.comp ~bits:14 ~boxes:3 ~fault:false;
        Fam.comp ~bits:14 ~boxes:3 ~fault:true;
        Fam.comp ~bits:16 ~boxes:3 ~fault:true;
        Fam.comp ~bits:16 ~boxes:3 ~fault:false;
      ]
  in
  let c432 =
    List.concat_map
      (fun lines ->
        List.concat_map
          (fun boxes ->
            [
              Fam.c432 ~groups:3 ~lines ~boxes ~fault:true;
              Fam.c432 ~groups:3 ~lines ~boxes ~fault:false;
            ])
          [ 1; 2 ])
      [ 2; 3; 5; 7 ]
    @ [
        Fam.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:true;
        Fam.c432 ~groups:2 ~lines:2 ~boxes:1 ~fault:false;
        Fam.c432 ~groups:3 ~lines:9 ~boxes:3 ~fault:true;
        Fam.c432 ~groups:3 ~lines:9 ~boxes:3 ~fault:false;
      ]
  in
  adder @ bitcell @ lookahead @ pec_xor @ z4 @ comp @ c432

let write_suite out_dir =
  List.iter
    (fun (inst : Fam.instance) ->
      let dir = Filename.concat out_dir inst.Fam.family in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      print_endline (write_instance dir inst))
    (suite ())

let family_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc:"benchmark family")

let size_arg = Arg.(value & opt int 4 & info [ "size"; "s" ] ~docv:"N" ~doc:"size parameter")
let boxes_arg = Arg.(value & opt int 2 & info [ "boxes"; "k" ] ~docv:"K" ~doc:"number of black boxes")
let fault_arg = Arg.(value & flag & info [ "fault" ] ~doc:"inject an unfixable fault (UNSAT)")
let out_arg = Arg.(value & opt dir "." & info [ "out"; "o" ] ~docv:"DIR" ~doc:"output directory")

let sizes_arg =
  Arg.(
    value
    & opt (list int) [ 2; 4; 6; 8 ]
    & info [ "sizes" ] ~docv:"N,N,..." ~doc:"sizes for the sweep")

let boxes_list_arg =
  Arg.(value & opt (list int) [ 1; 2 ] & info [ "boxes-list" ] ~docv:"K,K,..." ~doc:"box counts")

let one_cmd =
  Cmd.v
    (Cmd.info "one" ~doc:"emit a single instance")
    Term.(const one $ family_arg $ size_arg $ boxes_arg $ fault_arg $ out_arg)

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"emit a parameter sweep (both SAT and UNSAT variants)")
    Term.(const sweep $ family_arg $ sizes_arg $ boxes_list_arg $ out_arg)

let suite_cmd =
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "emit the fixed Table I suite into one subdirectory per family (hqs sweep takes an \
          instance's family from its directory name)")
    Term.(const write_suite $ out_arg)

let cmd =
  Cmd.group
    (Cmd.info "genpec" ~doc:"generate partial-equivalence-checking DQBF benchmarks")
    [ one_cmd; sweep_cmd; suite_cmd ]

let () = exit (Cmd.eval cmd)
