(** Per-worker OS resource limits, mirroring the paper's per-instance
    abort criteria (Section IV: wall-clock timeout and memory cap).

    [wall_s] is enforced by the {e parent} ({!Pool} SIGKILLs the worker's
    process group past the deadline); [cpu_s] and [mem_bytes] are applied
    {e inside the child} between [fork] and the task body, via
    [setrlimit] (bound by a local C stub — the OCaml [Unix] library does
    not expose it):
    - [cpu_s] sets [RLIMIT_CPU] with soft = [cpu_s] (SIGXCPU, classified
      as a CPU timeout) and hard = [cpu_s + 2] (kernel SIGKILL backstop);
    - [mem_bytes] sets [RLIMIT_AS] (soft = hard), floored at 16 MiB so
      the OCaml runtime itself can still start; an allocation beyond it
      fails, surfaces as [Out_of_memory] in the worker, and is reported
      as a memout over the result pipe. *)

type t = { wall_s : float option; cpu_s : int option; mem_bytes : int option }

val none : t

val apply_in_child : t -> unit
(** Apply [cpu_s]/[mem_bytes] to the calling process. Call only in a
    freshly forked worker. Failures are ignored (the limit is then simply
    not enforced; the pool's wall-clock kill still applies). *)
