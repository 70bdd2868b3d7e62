(** The sentinel's campaign loop. One loop drives every campaign: the
    corpus audit ({!run}: workload-generated programs and their AST
    mutants), generative fuzzing ({!Fuzz.run}) and corpus promotion
    ({!Fuzz.promote}). Each subject gets a budget check and one
    differential-oracle run; an audited subject's divergences become
    incidents, its soundness misses are ddmin-reduced, the implicated
    functions quarantined and the quarantined re-run checked to cover the
    missed use again; an optional distillation step comes last.
    Deterministic in the subjects; time-boxed by [budget_ms] for CI. *)

(** The settings every campaign shares. *)
type config = {
  seed : int;                   (** campaign seed *)
  budget_ms : int option;       (** wall-clock box for the whole campaign *)
  dir : string;                 (** incident + quarantine directory *)
  hole : string option;         (** test hook: seeded plan-hole prefix *)
  minimize : bool;              (** ddmin-reduce soundness misses *)
  level : Optim.Pipeline.level;
  limits : Runtime.Interp.limits;
  knobs : Usher.Config.knobs;
  log : string -> unit;
}

val default_config : config

(** One program a campaign judges. *)
type subject = {
  name : string;                  (** what log lines call it *)
  seed : int;                     (** recorded in its incidents *)
  mutation : string;              (** "" unless it is an AST mutant *)
  src : (string, string) result;  (** the program, or why there is none *)
}

(** What a campaign does with a subject the oracle accepts. *)
type mode =
  | Audit of { feedback : bool }
      (** Judge under the directory's quarantine list, then capture,
          reduce and quarantine divergences. With [feedback], entries
          found during the campaign apply to later subjects too. *)
  | Judge  (** The oracle run alone, under [config.knobs]. *)

type summary = {
  subjects : int;               (** subjects begun before the budget expired *)
  audited : int;                (** subjects the oracle accepted *)
  mutants_run : int;            (** of those, AST mutants *)
  skipped : int;                (** no program, compile error or native trap *)
  incidents : Incident.t list;  (** newly captured, in order *)
  soundness_incidents : int;    (** misses + behavior divergences *)
  precision_incidents : int;
  quarantined : string list;    (** functions newly quarantined *)
  healed : int;                 (** misses covered again under quarantine *)
  distilled : int;              (** subjects the distillation step kept *)
  out_of_time : bool;
  oracle_s : float;             (** summed oracle wall time, accepted subjects *)
  elapsed_s : float;
}

val knobs_summary : Usher.Config.knobs -> string

(** [campaign cfg mode ~refused ?distil subjects] judges [subjects] in
    order, checking the budget before it builds each one (forces its
    thunk). [refused s reason] is the log line for a subject the oracle
    turns down; [distil s src report], the last step for an accepted one,
    says whether it kept the program. *)
val campaign :
  config ->
  mode ->
  refused:(subject -> string -> string) ->
  ?distil:(subject -> string -> Oracle.report -> bool) ->
  (unit -> subject) Seq.t ->
  summary

(** The corpus audit: each profile's program generated at [scale], then
    [mutants] AST mutants of it, quarantine entries feeding back. *)
val run :
  config ->
  profiles:Workloads.Profile.t list ->
  scale:int ->
  mutants:int ->
  summary
