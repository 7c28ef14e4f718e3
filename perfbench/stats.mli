(** Summary statistics for benchmark samples. Every function takes the
    samples in any order and raises [Invalid_argument] on an empty list. *)

val median : float list -> float
(** The middle sample, or the mean of the two middle samples. *)

val minimum : float list -> float
(** The fastest of repeated timings: with contention only ever slowing a
    run down, the best-of-N estimate of the uncontended time. *)

val mad : float list -> float
(** Median absolute deviation from the median. *)

val geomean : float list -> float
(** Geometric mean; every sample must be positive. *)

val quantile : float -> float list -> float option
(** [quantile q xs] is the nearest-rank [q]-quantile of [xs] when at
    least 10 samples lie above it, else [None]: a p90 needs 100 samples,
    a p95 200. A tail percentile read off fewer samples is one outlier
    wide, so it is refused rather than reported. *)

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile, interpolated like
    Python's [statistics.quantiles xs ~n:4] (the default exclusive
    method), so a spread computed here matches one computed by a Python
    driver on the same values. Needs at least 2 samples. *)

val iqr_share : float list -> float
(** Interquartile range as a share of the median (of {!quartiles}). *)
