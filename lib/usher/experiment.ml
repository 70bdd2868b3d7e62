(* One end-to-end experiment: compile a TinyC program at an optimization
   level, analyze it, instrument it under every variant, execute natively
   and under each plan, and report slowdowns plus static instrumentation
   statistics. [prepare] is everything before execution; the benchmark
   harness and the examples run [execute] on it, and the differential
   oracle (lib/audit) runs the same lanes and judges them itself. *)

type lane = {
  lvariant : Config.variant;
  lplan : Instr.Item.plan;              (* compressed at O1/O2 *)
  ltraversal : Instr.Guided.result option;  (* None: full instrumentation *)
  lcompressed : int;                    (* items compression removed *)
}

type prepared = {
  name : string;
  level : Optim.Pipeline.level;
  src : string;
  analysis : Pipeline.analysis;   (* events: frontend, analysis, planning *)
  unplanned : Degrade.event list; (* frontend + analysis events: Table 1's *)
  lanes : lane list;              (* Config.all_variants order *)
  base : Runtime.Interp.base;
}

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

(* The coverage rule over one instrumented run. [native.gt_uses] and a
   lane's [gt_uses] are copies, so the order is the lane's too. *)
let escaped (prog : Ir.Prog.t) ~(native : Runtime.Interp.outcome)
    (o : Runtime.Interp.outcome) : Ir.Types.label list =
  Hashtbl.fold
    (fun lbl () acc -> if covered prog o.detections lbl then acc else lbl :: acc)
    native.gt_uses []
  |> List.rev

(* Step (3) of the paper's O1/O2 methodology: rerun the optimizer over
   the inserted instrumentation (shadow constant folding + shadow
   dead-code elimination). *)
let compress (level : Optim.Pipeline.level) (plan : Instr.Item.plan) : int =
  let span name f = Obs.Trace.with_span ~cat:"instr" ("instr." ^ name) f in
  if level = Optim.Pipeline.O0_IM then 0
  else
    let folded =
      span "fold_constants" (fun () -> Instr.Compress.fold_constants plan)
    in
    folded + span "compress" (fun () -> Instr.Compress.run plan)

let plan_for level a v =
  let plan, traversal = Pipeline.plan_for a v in
  ignore (compress level plan);
  (plan, traversal)

let prepare ?(name = "program") ?(level = Optim.Pipeline.O0_IM)
    ?(knobs = Config.default_knobs) (src : string) : prepared =
  let prog, front_events = Pipeline.front_guarded ~level ~knobs src in
  let { Pipeline.analysis; plans; plan_events; base } =
    Pipeline.prepare ~knobs prog
  in
  let unplanned = front_events @ !(analysis.events) in
  analysis.events := unplanned @ plan_events;
  let lane (v, (plan, traversal)) =
    {
      lvariant = v;
      lplan = plan;
      ltraversal = traversal;
      lcompressed = compress level plan;
    }
  in
  { name; level; src; analysis; unplanned; lanes = List.map lane plans; base }

(* [check_soundness] verifies that each plan detects every ground-truth
   undefined use at a critical operation — the paper's soundness guarantee
   ("no uses of undefined values will be missed"). The check is skipped
   for O1/O2, where LLVM-style optimization legitimately hides uses
   (§4.3/§4.6: deleted dead loads take their checks with them, and folded
   branches change the undef-use set). *)
let execute ?(check_soundness = true) (p : prepared) : t =
  let prog = p.analysis.prog in
  let traversal v =
    (List.find (fun l -> l.lvariant = v) p.lanes).ltraversal
  in
  (* Table 1's %B and S come from the Usher_TL+AT and Usher_OptI plans'
     own traversals; its degradation events stop where planning starts. *)
  let table1 =
    Analysis_stats.compute
      ~traversals:(traversal Config.Usher_tl_at, traversal Config.Usher_opt1)
      ~src:p.src
      { p.analysis with events = ref p.unplanned }
  in
  (* One execution runs every plan as a lane and yields the native
     outcome too; the lanes share its concrete values, so their outputs
     are the native outputs. *)
  let { Runtime.Interp.native; per_lane } =
    Runtime.Interp.run_lanes
      (Runtime.Interp.attach_lanes p.base (List.map (fun l -> l.lplan) p.lanes))
  in
  let results =
    List.map2
      (fun l (outcome : Runtime.Interp.outcome) ->
        (if check_soundness && p.level = Optim.Pipeline.O0_IM then
           match escaped prog ~native outcome with
           | lbl :: _ ->
             raise
               (Unsound
                  (Printf.sprintf
                     "%s/%s: ground-truth undefined use at l%d not detected"
                     p.name (Config.variant_name l.lvariant) lbl))
           | [] -> ());
        {
          variant = l.lvariant;
          static_stats = Instr.Item.stats_of l.lplan;
          slowdown_pct =
            Runtime.Costmodel.slowdown_pct ~native:native.counters
              ~instrumented:outcome.counters ();
          dynamic_shadow_ops = Runtime.Counters.shadow_ops outcome.counters;
          detections = Hashtbl.fold (fun l () acc -> l :: acc) outcome.detections [];
          compressed_away = l.lcompressed;
        })
      p.lanes (Array.to_list per_lane)
  in
  {
    name = p.name;
    level = p.level;
    analysis = p.analysis;
    table1;
    native_counters = native.counters;
    native_outputs = native.outputs;
    gt_uses = Hashtbl.fold (fun l () acc -> l :: acc) native.gt_uses [];
    results;
  }

let run ?(name = "program") ?(level = Optim.Pipeline.O0_IM) ?knobs
    ?check_soundness (src : string) : t =
  Obs.Trace.with_span ~cat:"experiment"
    ~args:[ ("level", Obs.Trace.Str (Optim.Pipeline.level_to_string level)) ]
    ("experiment." ^ name)
  @@ fun () ->
  execute ?check_soundness (prepare ~name ~level ?knobs src)

let result_for (t : t) (v : Config.variant) : variant_result =
  List.find (fun r -> r.variant = v) t.results
