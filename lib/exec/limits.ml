external setrlimit : int -> int -> int -> bool = "hqs_exec_setrlimit"

type t = { wall_s : float option; cpu_s : int option; mem_bytes : int option }

let none = { wall_s = None; cpu_s = None; mem_bytes = None }

(* RLIMIT_CPU: the soft limit delivers SIGXCPU (classified as a CPU
   timeout by the pool); the hard limit, two seconds later, is the
   kernel's SIGKILL backstop should the worker ignore it. *)
let apply_in_child t =
  (match t.cpu_s with
  | None -> ()
  | Some s ->
      let s = max 1 s in
      ignore (setrlimit 0 s (s + 2)));
  match t.mem_bytes with
  | None -> ()
  | Some b ->
      let b = max (16 * 1024 * 1024) b in
      ignore (setrlimit 1 b b)
