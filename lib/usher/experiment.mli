(** One end-to-end experiment: compile a TinyC program at an optimization
    level, analyze it, instrument it under every variant, execute natively
    and under each plan, and report slowdowns plus static instrumentation
    statistics. The unit both the benchmark harness and the examples build
    on. *)

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

(** Run every variant: {!Pipeline.prepare} analyzes the program, plans
    all five variants and compiles one {!Runtime.Interp.base}, running the
    Usher_TL half of the work on a helper domain for a large program (the
    results are the sequential ones); then the plans execute on that
    base. Table 1's %B and S are the Usher_TL+AT and Usher_OptI plans'
    traversals, and its time and memory sum what the analysis's thunks
    measured on their own domains. On the default [engine] ([Interp]) one
    execution runs the five plans as lanes and yields the native outcome
    too; [~engine:Vm] is the reference: a native VM run, then each plan in
    its own VM run. With [check_soundness] (default, O0+IM only) the lanes
    are checked in {!Config.all_variants} order, raising {!Unsound} at the
    first ground-truth undefined use a plan does not cover. On the VM
    path, a plan run whose outputs differ from the native run's also
    raises {!Unsound}; the lane path has one concrete execution, so there
    it cannot happen. *)
val run :
  ?name:string ->
  ?level:Optim.Pipeline.level ->
  ?knobs:Config.knobs ->
  ?check_soundness:bool ->
  ?limits:Runtime.Interp.limits ->
  ?engine:Vm.Engine.t ->
  string ->
  t

val result_for : t -> Config.variant -> variant_result
