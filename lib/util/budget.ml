exception Timeout
exception Out_of_memory_budget

type t = {
  deadline : float; (* infinity = unlimited *)
  mem_limit_words : int; (* heap ceiling; max_int = unlimited *)
}

let unlimited = { deadline = infinity; mem_limit_words = max_int }

(* monotonic, so deadlines and elapsed times are immune to NTP steps;
   see [Mono] *)
let now () = Mono.now ()

let of_seconds s = { deadline = now () +. s; mem_limit_words = max_int }

let sub ~frac t =
  if t.deadline = infinity then t
  else
    let now = now () in
    { t with deadline = min t.deadline (now +. (frac *. (t.deadline -. now))) }

let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)
let with_mem_limit_mb t = function
  | None -> t
  | Some mb -> { t with mem_limit_words = mb * words_per_mb }
let mem_limit_words t = if t.mem_limit_words = max_int then None else Some t.mem_limit_words
(* [quick_stat] covers only the major heap, which is 0 early in a run
   (OCaml 5 promotes lazily); add the mapped minor arena so the governor
   reflects memory the process actually holds and small ceilings trip
   deterministically *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words + (Gc.get ()).Gc.minor_heap_size
let mem_exceeded t = t.mem_limit_words <> max_int && heap_words () > t.mem_limit_words
let expired t = t.deadline < infinity && now () > t.deadline

let check t =
  if expired t then raise Timeout;
  if mem_exceeded t then raise Out_of_memory_budget

let remaining t = if t.deadline = infinity then infinity else t.deadline -. now ()
