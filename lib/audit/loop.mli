(** The audit loop: feed workload-generated programs and AST-level
    mutants through the differential oracle; capture incidents, reduce
    soundness misses with ddmin, quarantine implicated functions, and
    verify the quarantined re-run covers the missed uses again. Fully
    deterministic in [seed]; time-boxed by [budget_ms] for CI. *)

type config = {
  profiles : Workloads.Profile.t list;
  scale : int;
  mutants : int;                (** mutants per base program *)
  seed : int;
  budget_ms : int option;       (** wall-clock box for the whole loop *)
  dir : string;                 (** incident + quarantine directory *)
  hole : string option;         (** test hook: seeded plan-hole prefix *)
  minimize : bool;              (** ddmin-reduce soundness misses *)
  level : Optim.Pipeline.level;
  limits : Runtime.Interp.limits;
  engine : Vm.Engine.t;         (** engine for the instrumented runs *)
  knobs : Usher.Config.knobs;
  log : string -> unit;
}

val default_config : config

type summary = {
  programs : int;
  mutants_run : int;
  skipped : int;                (** subjects whose native run trapped *)
  incidents : Incident.t list;
  soundness_incidents : int;    (** misses + behavior divergences *)
  precision_incidents : int;
  quarantined : string list;    (** functions newly quarantined *)
  healed : int;                 (** misses covered again under quarantine *)
  out_of_time : bool;
}

val knobs_summary : Usher.Config.knobs -> string

(** Run the differential oracle on one source under this config's level,
    limits and hole. [Error] when the subject is invalid (compile error
    or native-run trap); anything else propagates. *)
val oracle_check :
  config ->
  knobs:Usher.Config.knobs ->
  string ->
  (Oracle.report, string) result

(** Audit one already-checked subject from its oracle report: capture and
    save incidents, ddmin-reduce misses, return quarantine entries and
    the healed count. The fuzz driver uses this to fingerprint and audit
    from a single oracle run. *)
val audit_report :
  config ->
  knobs:Usher.Config.knobs ->
  seed:int ->
  mutation:string ->
  src:string ->
  Oracle.report ->
  Incident.t list * Quarantine.entry list * int

val run : config -> summary
