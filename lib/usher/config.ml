(* Analysis variants evaluated in the paper (§4.5) and tuning knobs. *)

(** The five instrumentation configurations of Figures 10 and 11. *)
type variant =
  | Msan          (** full instrumentation — the baseline *)
  | Usher_tl      (** top-level variables only, no Opt I/II *)
  | Usher_tl_at   (** + address-taken variables *)
  | Usher_opt1    (** + Opt I (value-flow simplification) *)
  | Usher_full    (** + Opt II (redundant check elimination) *)

let all_variants = [ Msan; Usher_tl; Usher_tl_at; Usher_opt1; Usher_full ]

let variant_name = function
  | Msan -> "MSan"
  | Usher_tl -> "Usher_TL"
  | Usher_tl_at -> "Usher_TL+AT"
  | Usher_opt1 -> "Usher_OptI"
  | Usher_full -> "Usher"

(** Seeded analyzer corruptions: each silently damages one phase's
    finished artifact in the unsound (fact-dropping) direction, which the
    certifying checkers (lib/verify) must always detect. *)
type corruption =
  | Pts_bitflip    (** clear one set bit in the points-to solution *)
  | Drop_vfg_edge  (** remove one value-flow edge from the VFG *)
  | Gamma_flip     (** flip one ⊥ entry of Γ to ⊤ *)

(** How an injected fault manifests at a phase boundary. *)
type fault_kind =
  | Crash      (** the phase raises a structured diagnostic *)
  | Exhaust    (** the phase reports its resource budget as blown *)
  | Corrupt of corruption
      (** the phase completes but its result is silently damaged *)

(** A fault to inject (testing the degradation ladder): fires when the
    pipeline enters [fphase] — at the phase boundary when [ffunc] is
    [None], or while processing that one function otherwise (only phases
    with per-function isolation consult function-scoped faults). *)
type fault = {
  fphase : Diag.phase;
  ffunc : string option;
  fkind : fault_kind;
}

(** Ablation switches (DESIGN.md §5); the paper's configuration is
    [default]. *)
type knobs = {
  semi_strong : bool;
  context_sensitive : bool;
  field_sensitive : bool;
  heap_cloning : bool;
  small_array_fields : int;
      (** extension beyond the paper (see Analysis.Andersen.config);
          0 = the paper's arrays-as-a-whole treatment *)
  budget_ms : int option;      (** wall-clock budget for the whole analysis *)
  verify : bool;
      (** run the certificate checkers (lib/verify) after each pipeline
          phase; violations feed the degradation ladder *)
  inject : fault list;         (** faults to inject (tests/CLI) *)
  quarantine : (string * string) list;
      (** functions the soundness sentinel has quarantined, as
          (function, incident id): the pipeline distrusts each one up
          front, forcing full instrumentation until the incident is
          resolved (see lib/audit) *)
}

let default_knobs =
  {
    semi_strong = true;
    context_sensitive = true;
    field_sensitive = true;
    heap_cloning = true;
    small_array_fields = 0;
    budget_ms = None;
    verify = false;
    inject = [];
    quarantine = [];
  }
