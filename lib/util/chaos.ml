type t = string list

let off = []
let arm points = points
let fire t point = List.mem point t
let worker_kill_point ~task ~attempt = Printf.sprintf "exec.worker.kill:%s#%d" task attempt
