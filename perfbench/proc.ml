(* Child processes of the benchmark: the hqs and certcheck binaries,
   started the way a user starts them, with stdout and stderr captured
   in files of the run's work directory. Every started pid is tracked so
   [reap_all] can stop whatever is still alive when a run ends early. *)

let now = Hqs_util.Budget.now

type child = { pid : int; t0 : float; out_path : string; err_path : string }
type result = { code : int; wall_s : float; out : string; err : string }

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn ~work ~tag prog args =
  let out_path = Filename.concat work (tag ^ ".out") in
  let err_path = Filename.concat work (tag ^ ".err") in
  let oc_out = open_out_bin out_path and oc_err = open_out_bin err_path in
  let ic_null = open_in_bin "/dev/null" in
  let fd_out = Unix.descr_of_out_channel oc_out and fd_err = Unix.descr_of_out_channel oc_err in
  let fd_in = Unix.descr_of_in_channel ic_null in
  List.iter Unix.set_close_on_exec [ fd_out; fd_err; fd_in ];
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        close_out oc_out;
        close_out oc_err;
        close_in ic_null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) fd_in fd_out fd_err)
  in
  Hashtbl.replace live pid ();
  { pid; t0; out_path; err_path }

(* 128 + n for a death by signal, like a shell reports it *)
let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      if s = Sys.sigkill then 137 else if s = Sys.sigterm then 143 else 128

let rec waitpid_retry pid =
  try Unix.waitpid [] pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* the child has exited: stamp its wall time and collect its output *)
let finish c status =
  let wall_s = now () -. c.t0 in
  Hashtbl.remove live c.pid;
  { code = exit_code status; wall_s; out = read_file c.out_path; err = read_file c.err_path }

let wait c = finish c (snd (waitpid_retry c.pid))

(* block until any tracked child exits; returns its pid and status *)
let wait_any () =
  let pid, status = waitpid_retry (-1) in
  Hashtbl.remove live pid;
  (pid, status)

let run ~work ~tag prog args = wait (spawn ~work ~tag prog args)

let signal c signo = try Unix.kill c.pid signo with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

(* [run] with a wall deadline: past it the child is killed, reaped and
   [None] returned *)
let run_within ~seconds ~work ~tag prog args =
  let c = spawn ~work ~tag prog args in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when now () -. c.t0 > seconds ->
        signal c Sys.sigkill;
        ignore (wait c);
        None
    | 0, _ ->
        Unix.sleepf 0.002;
        poll ()
    | _, status -> Some (finish c status)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()

let reap_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  Hashtbl.iter
    (fun pid () -> try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
    (Hashtbl.copy live);
  Hashtbl.reset live

(* the value of "c metric NAME V" in a --metrics or --stats dump *)
let metric text name =
  let prefix = "c metric " ^ name ^ " " in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        float_of_string_opt
          (String.sub line (String.length prefix) (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' text)
