(** Process-wide metrics registry of named work counters. All update
    operations are lock-free atomics, safe to call from any domain;
    totals merge across domains by construction. Create handles once
    (module initialization), update cheaply thereafter. *)

type counter

val counter : string -> counter
(** Find-or-register. Registering a name twice returns the same handle. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int

val snapshot : unit -> (string * int) list
(** Consistent-enough view of every registered counter, sorted by name. *)

val reset : unit -> unit
(** Zero all values; handles stay valid. *)
