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

(** Run every variant. With [check_soundness] (default, O0+IM only) raises
    {!Unsound} if an instrumented run diverges from the native outputs or a
    ground-truth undefined use is not covered. [engine] forces the
    execution engine for both the native and the instrumented runs. By
    default the native run uses the interpreter and the instrumented runs
    use {!Vm.Engine.choose} on its step count. *)
val run :
  ?name:string ->
  ?level:Optim.Pipeline.level ->
  ?knobs:Config.knobs ->
  ?variants:Config.variant list ->
  ?check_soundness:bool ->
  ?limits:Runtime.Interp.limits ->
  ?engine:Vm.Engine.t ->
  string ->
  t

val result_for : t -> Config.variant -> variant_result

(** [parallel_map ~jobs f xs] maps [f] over [xs] on up to [jobs] domains
    (default 1 = plain [List.map]). Work items are claimed from an atomic
    counter; results come back in input order regardless of completion
    order. Failure is fail-fast: once any application raises, no new items
    are handed out (in-flight items finish); after all domains joined, the
    failure at the lowest input index that ran is re-raised with the
    worker's own backtrace. [f] must be safe to run concurrently with
    itself — experiment runs are: every mutable artifact hangs off the
    per-run program. *)
val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
