(* The single monotonic time source for the whole stack.

   Everything that measures a duration or enforces a deadline — pipeline
   phase timers, Diag.Budget wall-clock deadlines, the bench harness's
   total-wall line, trace-event timestamps — reads this clock, never
   [Unix.gettimeofday]: the wall clock can step (NTP slew, manual set,
   leap smearing), which used to yield negative or garbage phase times
   that flowed straight into BENCH_usher.json and budget checks. *)

external now_ns : unit -> int = "obs_monotonic_now_ns" [@@noalloc]

(* CPU nanoseconds of the calling thread, i.e. of the calling domain:
   what an analysis costs, whatever other domains do meanwhile. *)
external thread_cpu_ns : unit -> int = "obs_thread_cpu_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) *. 1e-9

(* Durations are clamped at >= 0 as a belt-and-braces guard: the source
   is monotonic, but a caller mixing timestamps from before/after a
   [reset] in tests, or a hypothetical non-monotonic fallback, must
   still never observe a negative duration. *)
let elapsed_ns (t0_ns : int) : int = max 0 (now_ns () - t0_ns)
let elapsed_s (t0_s : float) : float = Float.max 0.0 (now_s () -. t0_s)
let span_s ~(t0 : float) ~(t1 : float) : float = Float.max 0.0 (t1 -. t0)
