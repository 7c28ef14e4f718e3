type policy = { base_s : float; max_s : float }

let default = { base_s = 0.05; max_s = 2.0 }

let delay policy ~attempt =
  if attempt < 1 then invalid_arg "Backoff.delay: attempt is 1-based";
  Float.min policy.max_s (policy.base_s *. (2.0 ** float_of_int (attempt - 1)))
