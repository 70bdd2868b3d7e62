(** Process-wide metrics registry: counters, gauges, log2-bucket
    histograms. All update operations are lock-free atomics, safe to call
    from any domain; totals merge across domains by construction. Create
    handles once (module initialization), update cheaply thereafter. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-register. Registering a name twice returns the same handle;
    re-registering with a different kind raises [Invalid_argument]. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record a sample into its log2 bucket (and the count/sum totals). *)

val nbuckets : int

val bucket_of : int -> int
(** 0 for v <= 0; otherwise bit-length of v, capped at [nbuckets - 1]. *)

val bucket_lower : int -> int
(** Inclusive lower bound of a bucket index. *)

type snapshot_value =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : int; buckets : (int * int) list }

val snapshot : unit -> (string * snapshot_value) list
(** Consistent-enough view of every registered metric, sorted by name.
    Histogram buckets are
    [(inclusive lower bound, count)], nonzero only. *)

val reset : unit -> unit
(** Zero all values; handles stay valid. *)
