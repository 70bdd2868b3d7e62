/* Monotonic clock for the observability layer (Obs.Clock).

   CLOCK_MONOTONIC never steps backwards (unlike gettimeofday, which NTP
   or an operator can rewind), so durations derived from it are always
   >= 0 and deadline arithmetic cannot be fooled by a clock step.

   The reading is returned as a tagged OCaml int of nanoseconds: on the
   64-bit platforms this project targets, 62 bits hold ~146 years of
   uptime, and the tagged representation keeps the call allocation-free
   ([@@noalloc] on the OCaml side). */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value obs_monotonic_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
#ifdef CLOCK_MONOTONIC
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
#endif
  {
    /* No monotonic clock: fall back to the realtime clock rather than
       failing — callers clamp durations at >= 0 anyway. */
    clock_gettime(CLOCK_REALTIME, &ts);
  }
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

/* CPU time consumed by the calling thread (Obs.Clock.thread_cpu_ns).

   Each OCaml 5 domain runs on its own system thread, so this charges a
   measurement with the CPU its own domain spent and nothing another
   domain burned meanwhile — unlike the process-wide [Sys.time]. Same
   tagged-int encoding as [obs_monotonic_now_ns]. */
CAMLprim value obs_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
