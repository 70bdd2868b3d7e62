(** The single monotonic time source for the whole stack (CLOCK_MONOTONIC
    via a C stub; allocation-free). Use it for every duration and
    deadline; [Unix.gettimeofday] is not monotonic and must not be used
    for timing. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic timebase (origin unspecified). *)

val thread_cpu_ns : unit -> int
(** CPU nanoseconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID;
    allocation-free). Each domain is its own thread, so work done by other
    domains in the meantime is not counted, unlike [Sys.time]. *)

val now_s : unit -> float
(** Seconds on the monotonic timebase (origin unspecified). *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is nanoseconds since [t0 = now_ns ()], clamped >= 0. *)

val elapsed_s : float -> float
(** [elapsed_s t0] is seconds since [t0 = now_s ()], clamped >= 0. *)

val span_s : t0:float -> t1:float -> float
(** [t1 - t0] clamped at >= 0. *)
