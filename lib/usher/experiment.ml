(* One end-to-end experiment: compile a TinyC program at an optimization
   level, analyze it, instrument it under every variant, execute natively
   and under each plan, and report slowdowns plus static instrumentation
   statistics. This is the unit both the benchmark harness and the examples
   are built from. *)

type variant_result = {
  variant : Config.variant;
  static_stats : Instr.Item.stats;
  slowdown_pct : float;
  dynamic_shadow_ops : int;
  detections : Ir.Types.label list;     (* E(l) that fired *)
  compressed_away : int;                (* items removed by shadow DCE *)
}

type t = {
  name : string;
  level : Optim.Pipeline.level;
  analysis : Pipeline.analysis;
  table1 : Analysis_stats.t;
  native_counters : Runtime.Counters.t;
  native_outputs : int list;
  gt_uses : Ir.Types.label list;        (* ground-truth undefined uses *)
  results : variant_result list;
}

exception Unsound of string

(** Is the ground-truth undefined use at [lbl] covered by [detections]?
    Covered means: detected at [lbl] itself, or dominated (same function,
    executes-before) by a statement whose check fired — the situation Opt II
    creates deliberately: the undefined value was already reported at the
    dominating check, and its rippling effects are suppressed (§3.5.2). *)
let covered (prog : Ir.Prog.t) (detections : (Ir.Types.label, unit) Hashtbl.t)
    (lbl : Ir.Types.label) : bool =
  Hashtbl.mem detections lbl
  || Ir.Prog.fold_funcs
       (fun acc f ->
         acc
         ||
         let pos = Analysis.Dominance.label_positions f in
         if not (Hashtbl.mem pos lbl) then false
         else begin
           let dom = Analysis.Dominance.compute f in
           Hashtbl.fold
             (fun d () acc ->
               acc
               || (Hashtbl.mem pos d
                  && Analysis.Dominance.label_dominates dom pos d lbl))
             detections false
         end)
       false prog

(** Run every variant on [src]. [check_soundness] verifies that each plan
    detects every ground-truth undefined use at a critical operation — the
    paper's soundness guarantee ("no uses of undefined values will be
    missed"). The check is skipped for O1/O2, where LLVM-style optimization
    legitimately hides uses (§4.3/§4.6: deleted dead loads take their checks
    with them, and folded branches change the undef-use set). *)
let run ?(name = "program") ?(level = Optim.Pipeline.O0_IM)
    ?(knobs = Config.default_knobs) ?(check_soundness = true) ?limits
    ?(engine = Vm.Engine.Interp)
    (src : string) : t =
  Obs.Trace.with_span ~cat:"experiment"
    ~args:[ ("level", Obs.Trace.Str (Optim.Pipeline.level_to_string level)) ]
    ("experiment." ^ name)
  @@ fun () ->
  let prog, front_events = Pipeline.front_guarded ~level ~knobs src in
  let { Pipeline.analysis; plans; plan_events; base } =
    Pipeline.prepare ~knobs prog
  in
  let unplanned = front_events @ !(analysis.events) in
  analysis.events := unplanned @ plan_events;
  (* Table 1's %B and S come from the Usher_TL+AT and Usher_OptI plans'
     own traversals; its degradation events stop where planning starts. *)
  let table1 =
    Analysis_stats.compute
      ~traversals:
        ( snd (List.assoc Config.Usher_tl_at plans),
          snd (List.assoc Config.Usher_opt1 plans) )
      ~src
      { analysis with events = ref unplanned }
  in
  (* Step (3) of the paper's O1/O2 methodology: rerun the optimizer over
     the inserted instrumentation (shadow constant folding + shadow
     dead-code elimination). *)
  let plans =
    List.map
      (fun (v, (plan, _)) ->
        if level <> Optim.Pipeline.O0_IM then
          (v, plan, Instr.Compress.fold_constants plan + Instr.Compress.run plan)
        else (v, plan, 0))
      plans
  in
  (* One base and, on the interpreter, one execution for every plan. *)
  let native, outcomes =
    Vm.Engine.run_plans ?limits engine base
      (List.map (fun (_, plan, _) -> plan) plans)
  in
  let results =
    List.map2
      (fun (v, plan, compressed_away) (outcome : Runtime.Interp.outcome) ->
        (* The instrumented run must preserve program behaviour (only the
           VM runs each plan in its own execution)... *)
        if outcome.outputs <> native.outputs then
          raise
            (Unsound
               (Printf.sprintf "%s/%s: instrumented run diverged from native"
                  name (Config.variant_name v)));
        (* ...and must not miss any ground-truth undefined use. *)
        if check_soundness && level = Optim.Pipeline.O0_IM then
          Hashtbl.iter
            (fun lbl () ->
              if not (covered prog outcome.detections lbl) then
                raise
                  (Unsound
                     (Printf.sprintf
                        "%s/%s: ground-truth undefined use at l%d not detected"
                        name (Config.variant_name v) lbl)))
            outcome.gt_uses;
        {
          variant = v;
          static_stats = Instr.Item.stats_of plan;
          slowdown_pct =
            Runtime.Costmodel.slowdown_pct ~native:native.counters
              ~instrumented:outcome.counters ();
          dynamic_shadow_ops = Runtime.Counters.shadow_ops outcome.counters;
          detections = Hashtbl.fold (fun l () acc -> l :: acc) outcome.detections [];
          compressed_away;
        })
      plans outcomes
  in
  {
    name;
    level;
    analysis;
    table1;
    native_counters = native.counters;
    native_outputs = native.outputs;
    gt_uses = Hashtbl.fold (fun l () acc -> l :: acc) native.gt_uses [];
    results;
  }

let result_for (t : t) (v : Config.variant) : variant_result =
  List.find (fun r -> r.variant = v) t.results
