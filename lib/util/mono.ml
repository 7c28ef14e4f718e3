external clock_ns : unit -> int64 = "hqs_mono_clock_ns"

let now () = Int64.to_float (clock_ns ()) *. 1e-9
