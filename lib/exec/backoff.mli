(** Bounded exponential backoff for crash retries: the delay doubles per
    attempt from [base_s] up to [max_s]. *)

type policy = {
  base_s : float;  (** delay before the first retry *)
  max_s : float;  (** cap on the delay *)
}

val default : policy
(** 50 ms base, capped at 2 s. *)

val delay : policy -> attempt:int -> float
(** Seconds to wait before re-spawning a task after its [attempt]-th
    failure (1-based): [min max_s (base_s * 2^(attempt - 1))].
    @raise Invalid_argument if [attempt < 1]. *)
