(* The subcommand bodies shared by the CLI and the daemon.

   `usherc analyze/run/check/bench` and the corresponding serve requests
   MUST produce byte-identical text — the serve-smoke CI job diffs a
   served reply against a one-shot run. The only way to keep that true
   under refactoring is to have exactly one implementation: each handler
   renders into a [Buffer.t] and returns the exit code; the CLI prints
   the buffer to stdout and exits with the code, the daemon embeds the
   buffer in a JSON reply and maps the code to a reply status.

   Handlers never touch stdout/stderr themselves: inside the daemon they
   run on pool worker domains, where direct printing would interleave
   across requests. *)

let bpf = Printf.bprintf

(* Per-checker certificate summaries (--verify). *)
let print_verify_reports (b : Buffer.t) (reports : Verify.Report.t list) =
  List.iter
    (fun r -> bpf b "verify: %s\n" (Verify.Report.summary_line r))
    reports

(* Report what the resilience ladder did, if anything. *)
let print_degradation (b : Buffer.t) (a : Usher.Pipeline.analysis)
    (front_events : Usher.Degrade.event list) =
  print_verify_reports b a.verify_reports;
  List.iter
    (fun e -> bpf b "%s\n" (Usher.Degrade.to_string e))
    (front_events @ !(a.events));
  if a.degraded_all then
    bpf b "analysis degraded: every variant uses full (MSan) instrumentation\n"
  else begin
    match Usher.Pipeline.distrusted_functions a with
    | [] -> ()
    | fns ->
      bpf b "degraded functions (full instrumentation): %s\n"
        (String.concat ", " fns)
  end

(* ---- analyze ---- *)

(** [on_analysis] runs between planning and the stats report — the CLI
    hooks its --dump printing there (dumps precede the stats lines). *)
let analyze ?(on_analysis = fun _ _ _ -> ())
    ~(knobs : Usher.Config.knobs) ~(level : Optim.Pipeline.level)
    ~(variant : Usher.Config.variant) (b : Buffer.t) (src : string) : int =
  let prog, front_events = Usher.Pipeline.front_guarded ~level ~knobs src in
  let a = Usher.Pipeline.analyze ~knobs prog in
  let plan, guided = Usher.Pipeline.plan_for a variant in
  let stats = Instr.Item.stats_of plan in
  let t1 = Usher.Analysis_stats.compute ~src a in
  on_analysis prog a plan;
  bpf b "variant: %s\n" (Usher.Config.variant_name variant);
  bpf b "statements: %d   Var_TL: %d   Var_AT: %d stack / %d heap / %d global\n"
    (Ir.Prog.size prog) t1.var_tl t1.var_at_stack t1.var_at_heap
    t1.var_at_global;
  bpf b
    "VFG nodes: %d (%.0f%% need tracking)   stores: %.0f%% strong, %.0f%% weak-singleton\n"
    t1.vfg_nodes t1.pct_reaching t1.pct_strong t1.pct_weak_singleton;
  bpf b "static shadow propagations: %d   checks: %d   items: %d\n"
    stats.propagations stats.checks stats.total_items;
  bpf b
    "pointer solver: %d iterations, %d cycles collapsed, %d copy edges deduped\n"
    t1.pa_solve_iterations t1.pa_sccs_collapsed t1.pa_edges_deduped;
  bpf b
    "resolution: %d states, %d VFG SCCs collapsed (condensation ratio %.3f)\n"
    t1.resolve_states t1.resolve_condensed_sccs t1.condensation_ratio;
  (match guided with
  | Some g ->
    bpf b "guided traversal reached %d nodes; Opt I simplified %d closures\n"
      g.needed_nodes g.opt1_simplified
  | None -> ());
  bpf b "Opt II redirected %d nodes\n" a.opt2.redirected;
  print_degradation b a front_events;
  0

(* ---- run ---- *)

let run ~(knobs : Usher.Config.knobs) ~(level : Optim.Pipeline.level)
    ~(variant : Usher.Config.variant) ?engine (b : Buffer.t) (src : string) :
    int =
  let prog, front_events = Usher.Pipeline.front_guarded ~level ~knobs src in
  let a = Usher.Pipeline.analyze ~knobs prog in
  let plan, _ = Usher.Pipeline.plan_for a variant in
  print_degradation b a front_events;
  let native, engine = Vm.Engine.run_native_for_plans ?engine prog in
  let o = Vm.Engine.run_plan engine prog plan in
  List.iter (fun v -> bpf b "output: %d\n" v) o.outputs;
  bpf b "exit: %d\n" o.exit_value;
  List.iter
    (fun l -> bpf b "WARNING: use of undefined value at statement l%d\n" l)
    (Runtime.Interp.detection_labels o);
  bpf b "slowdown vs native: %.1f%%  (%d shadow ops over %d base ops)\n"
    (Runtime.Costmodel.slowdown_pct ~native:native.counters
       ~instrumented:o.counters ())
    (Runtime.Counters.shadow_ops o.counters)
    (Runtime.Counters.base_ops o.counters);
  (* Exit code: any ground-truth undefined use (from the native run) the
     instrumented run fails to cover is a soundness divergence. *)
  let escaped =
    List.filter
      (fun l -> not (Usher.Experiment.covered prog o.detections l))
      (Runtime.Interp.gt_use_labels native)
  in
  List.iter
    (fun l ->
      bpf b
        "SOUNDNESS: undefined use at statement l%d escaped %s instrumentation\n"
        l (Usher.Config.variant_name variant))
    escaped;
  if escaped <> [] then 4
  else if Hashtbl.length o.detections > 0 then 3
  else 0

(* ---- check ---- *)

let check ~(knobs : Usher.Config.knobs) ~(level : Optim.Pipeline.level)
    ~(incident_dir : string) (b : Buffer.t) (src : string) : int =
  let prog, front_events = Usher.Pipeline.front_guarded ~level ~knobs src in
  let a = Usher.Pipeline.analyze ~knobs prog in
  print_degradation b a front_events;
  if a.degraded_all then begin
    (* Rung 4 left no static results in use — there is nothing to
       certify, and full instrumentation is sound by construction. *)
    bpf b
      "check: analysis degraded to full instrumentation; no static \
       certificates in use\n";
    0
  end
  else begin
    let skip fn = Hashtbl.mem a.distrusted fn in
    let forced = Hashtbl.length a.distrusted > 0 in
    (* A Γ that fell back to all-⊥ certifies nothing; checking it against
       F-reachability would flag its (sound) over-approximation. *)
    let resolve_degraded =
      List.exists
        (fun (e : Usher.Degrade.event) -> e.phase = Diag.Resolve)
        !(a.events)
    in
    let gi suffix bld gamma =
      {
        Verify.Run.gi_suffix = suffix;
        gi_build = bld;
        gi_gamma = (if resolve_degraded then None else Some gamma);
        gi_allow_f_pins = forced;
      }
    in
    let budget = Usher.Budget.of_knobs knobs in
    let reports =
      Verify.Run.check_all ?budget ~skip
        ~context_sensitive:knobs.Usher.Config.context_sensitive prog a.pa a.cg
        a.mr a.mssa
        [ gi "" a.vfg a.gamma; gi "-tl" a.vfg_tl a.gamma_tl ]
    in
    print_verify_reports b reports;
    let print_violation (v : Verify.Report.violation) =
      bpf b "violation%s: %s\n"
        (match v.Verify.Report.vfunc with
        | Some fn -> " in " ^ fn
        | None -> "")
        (Diag.to_string v.Verify.Report.vdiag)
    in
    List.iter
      (fun r -> List.iter print_violation (Verify.Report.errors r))
      reports;
    if Verify.Run.all_ok reports then begin
      bpf b "check: all certificates verified\n";
      0
    end
    else begin
      let functions =
        List.concat_map
          (fun r ->
            List.filter_map
              (fun (v : Verify.Report.violation) -> v.Verify.Report.vfunc)
              (Verify.Report.errors r))
          reports
        |> List.sort_uniq compare
      in
      let rejected = List.filter (fun r -> not (Verify.Report.ok r)) reports in
      let inc =
        Audit.Incident.make ~kind:Audit.Incident.Static_violation
          ~variant:
            (String.concat "+"
               (List.map (fun (r : Verify.Report.t) -> r.checker) rejected))
          ~seed:0 ~mutation:"" ~functions ~labels:[]
          ~knobs:(Audit.Loop.knobs_summary knobs) ~source:src ()
      in
      let path = Audit.Incident.save ~dir:incident_dir inc in
      bpf b "check: %d certificate violation(s); incident recorded at %s\n"
        (Verify.Run.total_violations reports)
        path;
      5
    end
  end

(* ---- bench ---- *)

(* A deterministic client error, distinct from bare [Not_found] so the
   daemon's crash/retry classifier cannot confuse it with a stray
   [Not_found] escaping the analysis pipeline. *)
exception Unknown_bench of string

let bench ~(knobs : Usher.Config.knobs) ~(level : Optim.Pipeline.level)
    ~(scale : int) ?engine (b : Buffer.t) (name : string) : int =
  let p =
    try Workloads.Spec2000.find name
    with Not_found -> raise (Unknown_bench name)
  in
  let src = Workloads.Spec2000.source ~scale p in
  match Usher.Experiment.run ~name ~level ~knobs ?engine src with
  | exception Usher.Experiment.Unsound msg ->
    bpf b "SOUNDNESS: %s\n" msg;
    4
  | e ->
    bpf b "%s at %s (scale %d):\n" name
      (Optim.Pipeline.level_to_string level)
      scale;
    List.iter
      (fun (r : Usher.Experiment.variant_result) ->
        bpf b "  %-12s slowdown %6.1f%%  props %6d  checks %5d  detections %d\n"
          (Usher.Config.variant_name r.variant)
          r.slowdown_pct r.static_stats.propagations r.static_stats.checks
          (List.length r.detections))
      e.results;
    print_degradation b e.analysis [];
    if
      List.exists
        (fun (r : Usher.Experiment.variant_result) -> r.detections <> [])
        e.results
    then 3
    else 0
