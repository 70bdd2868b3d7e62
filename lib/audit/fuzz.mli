(** Generative fuzzing campaigns: [count] programs from {!Gen}, each run
    once through the differential oracle, audited (incidents, ddmin,
    quarantine) and fingerprinted for corpus distillation.

    Campaigns are deterministic in [seed]: per-program seeds are a pure
    function of (seed, index) and programs run one at a time in index
    order, the budget checked before each, so two runs of the same
    campaign produce identical incidents, quarantine lists and corpus
    directories. *)

type config = {
  count : int;                 (** programs to generate *)
  seed : int;                  (** campaign root seed *)
  size : int;                  (** generator size knob *)
  budget_ms : int option;      (** wall-clock box for the whole campaign *)
  dir : string;                (** incident + quarantine directory *)
  corpus : string option;      (** distilled-corpus directory *)
  distill : bool;              (** promote novel-coverage programs *)
  hole : string option;        (** test hook: seeded plan-hole prefix *)
  minimize : bool;             (** ddmin-reduce soundness misses *)
  level : Optim.Pipeline.level;
  limits : Runtime.Interp.limits;
  engine : Vm.Engine.t;        (** engine for the instrumented runs *)
  knobs : Usher.Config.knobs;
  log : string -> unit;
}

val default_config : config

type summary = {
  generated : int;
  audited : int;
  skipped : int;               (** native-run traps / compile errors *)
  incidents : Incident.t list;
  soundness_incidents : int;
  precision_incidents : int;
  quarantined : string list;
  healed : int;
  distilled : int;             (** programs promoted into the corpus *)
  corpus_total : int;          (** corpus size after this run *)
  out_of_time : bool;
  oracle_s : float;            (** summed per-program oracle wall time *)
  elapsed_s : float;
}

val run : config -> summary

(** Sorted members (file names) of a corpus directory. *)
val corpus_members : string -> string list

type promotion = {
  p_examined : int;   (** members of the source corpus *)
  p_promoted : int;   (** copied: contributed a novel feature *)
  p_redundant : int;  (** every feature already curated *)
  p_rejected : int;   (** unreadable, or the oracle refused the program *)
  p_total : int;      (** curated corpus size afterwards *)
}

(** [promote cfg ~src_dir ~dst_dir] re-runs the differential oracle over
    every member of the distilled corpus in [src_dir] (under [cfg]'s
    level/limits/engine/knobs) and copies a member into the curated
    corpus [dst_dir] — stable content-digest [fuzz-<digest>.c] name, its
    features merged into [dst_dir]'s [corpus.features] — exactly when
    its fingerprint contributes a feature the curated corpus lacks.
    Idempotent: a second run promotes nothing. *)
val promote : config -> src_dir:string -> dst_dir:string -> promotion
