(** One end-to-end experiment: compile a TinyC program at an optimization
    level, analyze it, instrument it under every variant, execute natively
    and under each plan, and report slowdowns plus static instrumentation
    statistics. The unit the benchmark harness, the examples and the
    differential oracle (lib/audit) build on. *)

(** One variant's plan, ready to run. *)
type lane = {
  lvariant : Config.variant;
  lplan : Instr.Item.plan;  (** compressed at O1/O2 *)
  ltraversal : Instr.Guided.result option;
      (** the guided traversal that built the plan; [None] for full
          instrumentation (MSan, or a plan degraded to it) *)
  lcompressed : int;  (** items O1/O2 compression removed; 0 at O0+IM *)
}

(** Everything an experiment needs before it executes anything. *)
type prepared = {
  name : string;
  level : Optim.Pipeline.level;
  src : string;
  analysis : Pipeline.analysis;
      (** its [events]: the frontend's, the analysis's, then planning's *)
  unplanned : Degrade.event list;
      (** the frontend's and the analysis's events: Table 1's *)
  lanes : lane list;  (** every variant, in {!Config.all_variants} order *)
  base : Runtime.Interp.base;  (** the program's one compiled base *)
}

type variant_result = {
  variant : Config.variant;
  static_stats : Instr.Item.stats;
  slowdown_pct : float;
  dynamic_shadow_ops : int;
  detections : Ir.Types.label list;   (** E(l) that fired *)
  compressed_away : int;              (** items removed by shadow DCE/folding *)
}

type t = {
  name : string;
  level : Optim.Pipeline.level;
  analysis : Pipeline.analysis;
  table1 : Analysis_stats.t;
  native_counters : Runtime.Counters.t;
  native_outputs : int list;
  gt_uses : Ir.Types.label list;      (** ground-truth undefined uses *)
  results : variant_result list;
}

exception Unsound of string

(** Is the ground-truth undefined use at a label covered by the detections:
    reported at its own statement, or dominated (same function,
    executes-before) by a statement whose check fired — the situation Opt
    II creates deliberately (§3.5.2)? *)
val covered :
  Ir.Prog.t -> (Ir.Types.label, unit) Hashtbl.t -> Ir.Types.label -> bool

(** The ground-truth undefined uses of [native] that an instrumented run's
    detections do not cover ({!covered}), in [native.gt_uses] order: the
    one classifier behind {!Unsound}, the oracle's misses and [usherc
    run]'s [SOUNDNESS] lines. *)
val escaped :
  Ir.Prog.t ->
  native:Runtime.Interp.outcome ->
  Runtime.Interp.outcome ->
  Ir.Types.label list

(** Step (3) of the paper's O1/O2 methodology, in place: above O0+IM,
    rerun the optimizer over the inserted instrumentation —
    {!Instr.Compress.fold_constants}, then {!Instr.Compress.run}, traced
    as [instr.fold_constants] and [instr.compress] spans. Returns the
    items removed; an O0+IM plan is left alone. *)
val compress : Optim.Pipeline.level -> Instr.Item.plan -> int

(** {!Pipeline.plan_for}, then {!compress}: one variant's plan as
    {!prepare} makes its lane, which [usherc analyze] reports and [usherc
    run] runs. *)
val plan_for :
  Optim.Pipeline.level ->
  Pipeline.analysis ->
  Config.variant ->
  Instr.Item.plan * Instr.Guided.result option

(** The guarded frontend, then {!Pipeline.prepare} (analysis, all five
    plans, the base compile; on a large program the Usher_TL half runs
    on a helper domain with the sequential results), the event merge and
    each plan's {!compress}. *)
val prepare :
  ?name:string ->
  ?level:Optim.Pipeline.level ->
  ?knobs:Config.knobs ->
  string ->
  prepared

(** Execute prepared plans and report. Table 1's %B and S are the
    Usher_TL+AT and Usher_OptI plans' traversals, and its time and memory
    sum what the analysis's thunks measured on their own domains. One
    {!Runtime.Interp.run_lanes} execution runs the five plans as lanes
    and yields the native outcome too. With [check_soundness] (default,
    O0+IM only) the lanes are checked in {!Config.all_variants} order,
    raising {!Unsound} at the first {!escaped} use. *)
val execute : ?check_soundness:bool -> prepared -> t

(** {!prepare}, then {!execute}, in one [experiment.NAME] span. *)
val run :
  ?name:string ->
  ?level:Optim.Pipeline.level ->
  ?knobs:Config.knobs ->
  ?check_soundness:bool ->
  string ->
  t

val result_for : t -> Config.variant -> variant_result
