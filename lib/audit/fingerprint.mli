(** Cheap per-program coverage fingerprints for corpus distillation.

    A fingerprint is a sorted set of feature strings summarizing what an
    oracle run exercised: ground-truth undefined-use volume, per-variant
    detection classes, divergence kinds, degradation rungs, VFG edge
    kinds and size, and Γ resolution effort — all counts log2-bucketed.
    The fuzz driver promotes a program into the persisted corpus exactly
    when its fingerprint contains a feature no earlier program
    contributed. *)

val bucket : int -> int
(** log2 bucket: 0→0, 1→1, 2-3→2, 4-7→3, … *)

val of_report : Oracle.report -> string list
(** Sorted, duplicate-free feature set of one differential-oracle run. *)

val novel : seen:(string, unit) Hashtbl.t -> string list -> string list
(** Features not yet in [seen]. *)

val remember : seen:(string, unit) Hashtbl.t -> string list -> unit
(** Add every feature to [seen]. *)
