/* Monotonic clock for Budget/Obs timing: CLOCK_MONOTONIC is immune to
   NTP step adjustments and is system-wide (since boot), so parent and
   forked worker processes read comparable timestamps. */
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <time.h>
#include <stdint.h>

CAMLprim value hqs_mono_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
    caml_failwith("clock_gettime(CLOCK_MONOTONIC) failed");
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec);
}
