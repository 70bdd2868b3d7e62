(** Generative fuzzing campaigns: [count] programs from {!Gen}, each run
    once through the differential oracle by {!Loop.campaign}, audited
    (incidents, ddmin, quarantine) and fingerprinted for corpus
    distillation.

    Campaigns are deterministic in [seed]: per-program seeds are a pure
    function of (seed, index) and programs run one at a time in index
    order, the budget checked before each, so two runs of the same
    campaign produce identical incidents, quarantine lists and corpus
    directories. *)

type config = {
  campaign : Loop.config;      (** the settings every campaign shares *)
  count : int;                 (** programs to generate *)
  size : int;                  (** generator size knob *)
  corpus : string option;      (** distilled-corpus directory *)
  distill : bool;              (** promote novel-coverage programs *)
}

val default_config : config

(** [distilled] counts the programs written into the corpus. *)
val run : config -> Loop.summary

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
    level/limits/knobs) and copies a member into the curated
    corpus [dst_dir] — stable content-digest [fuzz-<digest>.c] name, its
    features merged into [dst_dir]'s [corpus.features] — exactly when
    its fingerprint contributes a feature the curated corpus lacks.
    Idempotent: a second run promotes nothing. *)
val promote : Loop.config -> src_dir:string -> dst_dir:string -> promotion
