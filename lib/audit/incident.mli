(** Incident artifacts: one checksummed, atomically-written file per
    divergence, holding everything needed to replay it — program source,
    seed, mutation, variant, knobs, implicated functions/labels, and the
    ddmin-minimized repro once reduction has run. *)

type kind =
  | Soundness_miss
  | Precision_regression
  | Behavior_divergence
  | Static_violation
      (** a certificate checker ([usherc check] / lib/verify) rejected a
          static-analysis result *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

type t = {
  id : string;               (** content-derived, stable *)
  kind : kind;
  variant : string;          (** diverging variant's name *)
  seed : int;                (** corpus / fuzzing seed *)
  mutation : string;         (** mutation description; [""] for base programs *)
  functions : string list;   (** implicated functions *)
  labels : int list;         (** diverging labels *)
  knobs : string;            (** rendered knob summary *)
  source : string;           (** the full diverging program *)
  reduced : string option;   (** ddmin-minimized repro *)
  hits : int;                (** occurrences merged into this artifact *)
}

(** The [id] is derived from the canonical repro — [reduced] when
    present, [source] otherwise — plus kind and variant, but {e not} the
    seed or mutation that reached it, so the same hole found many ways
    yields one id. [hits] starts at 1. *)
val make :
  kind:kind ->
  variant:string ->
  seed:int ->
  mutation:string ->
  functions:string list ->
  labels:int list ->
  knobs:string ->
  source:string ->
  ?reduced:string ->
  unit ->
  t

val to_string : t -> string

(** Parse an artifact, verifying its checksum: a truncated or bit-rotted
    file is rejected with [Error] instead of replaying garbage. *)
val of_string : string -> (t, string) result

(** Create [dir] if missing. *)
val ensure_dir : string -> unit

(** Atomic file write (temp + rename): the file appears fully written or
    not at all. *)
val write_atomic : path:string -> string -> unit

val filename : t -> string

(** Write the artifact into [dir] (created if missing); returns its
    path. Saving an incident whose id already exists on disk merges it:
    the existing evidence is kept and its [hits] counter absorbs the new
    occurrence, so a fuzz run hitting one hole 50 times leaves one file,
    not 50. *)
val save : dir:string -> t -> string

val load : string -> (t, string) result

(** All well-formed incidents in [dir] plus (path, error) for corrupted
    ones. *)
val load_dir : string -> t list * (string * string) list
