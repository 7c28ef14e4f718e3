(** Monotonic time source for every elapsed-time measurement in the
    pipeline ({!Budget} deadlines, harness run times, [Obs] span
    timestamps).

    [Unix.gettimeofday] can step backwards under NTP adjustment, which
    would make child/parent elapsed-time accounting go negative; this
    module reads [clock_gettime(CLOCK_MONOTONIC)] through a C stub
    instead. CLOCK_MONOTONIC counts seconds since boot, system-wide, so
    timestamps are comparable between the sweep supervisor and its forked
    workers. The module holds no state, so a forked child has nothing to
    reset. *)

val now : unit -> float
(** Seconds from an arbitrary fixed origin (boot time on Linux).
    Non-decreasing within and across the processes of one machine. Use
    only for differences, never as a calendar time.
    @raise Failure if [clock_gettime(CLOCK_MONOTONIC)] fails, which no
    supported platform does. *)
