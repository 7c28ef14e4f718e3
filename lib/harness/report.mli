(** Formatting of the paper's evaluation artifacts from a list of per-
    instance results: Table I (per-family solved/unsolved breakdown with
    total time on commonly solved instances), Fig. 4 (the iDQ-vs-HQS
    runtime scatter, as a data series plus an ASCII log-log plot), and the
    headline claims of Section IV. Verdict disagreements recorded by the
    runner are surfaced as SOUNDNESS ALARM lines. *)

val table1 : Runner.result list -> string
val fig4 : ?timeout:float -> Runner.result list -> string
val headline : Runner.result list -> string
val csv : Runner.result list -> string
(** One line per instance: id, family, solver outcomes and times, the
    soundness column, then one column per {!Hqs.stat_columns} entry in
    its declared order — with the executor
    columns [outcome] (solved/timeout/memout/crash, classifying the HQS
    run), [attempts] and [worker_pid] kept at their historical position
    in front of [hqs_dep_scheme] — and last the [cert] artifact path
    from a certifying sweep. The header is byte-stable; statistic cells
    are empty for runs that left no stats. *)
