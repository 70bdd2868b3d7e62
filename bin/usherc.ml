(* usherc — command-line driver for the Usher library.

     usherc analyze FILE   static analysis: stats, optional artifact dumps
     usherc run FILE       execute under a chosen instrumentation variant
     usherc check FILE     certificate check: run the analysis with its
                           independent checkers on (points-to, memory SSA,
                           VFG/Γ) and report their verdict
     usherc gen NAME       print a SPEC2000-analog TinyC source
     usherc bench NAME     one benchmark end to end (all variants)
     usherc audit          differential soundness audit over the corpus
     usherc fuzz           generative differential fuzzing

   Programs are TinyC sources (see README).

   Exit codes (run, bench, audit, fuzz, check):
     0  clean
     1  a diagnostic error (for check: a certificate checker aborted)
     3  a use of an undefined value was detected
     4  soundness divergence: a ground-truth undefined use escaped the
        instrumentation (or, for audit and fuzz, any captured soundness
        incident)
     5  a certificate checker rejected a static-analysis result *)

open Cmdliner

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Diag.error Diag.Driver "cannot read file: %s" msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try really_input_string ic (in_channel_length ic)
        with
        | Sys_error msg -> Diag.error Diag.Driver "cannot read %s: %s" path msg
        | End_of_file ->
          Diag.error Diag.Driver "cannot read %s: truncated read" path)

let level_conv =
  let parse = function
    | "O0+IM" | "o0" | "O0" -> Ok Optim.Pipeline.O0_IM
    | "O1" | "o1" -> Ok Optim.Pipeline.O1
    | "O2" | "o2" -> Ok Optim.Pipeline.O2
    | s -> Error (`Msg ("unknown optimization level " ^ s))
  in
  Arg.conv (parse, fun ppf l -> Fmt.string ppf (Optim.Pipeline.level_to_string l))

let variant_conv =
  let parse = function
    | "msan" -> Ok Usher.Config.Msan
    | "tl" -> Ok Usher.Config.Usher_tl
    | "tlat" | "tl+at" -> Ok Usher.Config.Usher_tl_at
    | "opt1" | "opti" -> Ok Usher.Config.Usher_opt1
    | "usher" | "full" -> Ok Usher.Config.Usher_full
    | s -> Error (`Msg ("unknown variant " ^ s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (Usher.Config.variant_name v))

let level_arg =
  Arg.(value & opt level_conv Optim.Pipeline.O0_IM
       & info [ "l"; "level" ] ~doc:"Optimization level: O0+IM, O1 or O2.")

let variant_arg =
  Arg.(value & opt variant_conv Usher.Config.Usher_full
       & info [ "v"; "variant" ] ~doc:"Variant: msan, tl, tl+at, opt1 or usher.")

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* ---- resource budgets and fault injection ---- *)

let budget_ms_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-ms" ]
           ~doc:"Wall-clock budget for the whole analysis, in milliseconds. \
                 Phases that outlive it degrade soundly instead of crashing.")

let fault_conv =
  let parse s =
    match Usher.Fault.of_spec s with Ok f -> Ok f | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf f -> Fmt.string ppf (Usher.Fault.to_string f))

let inject_arg =
  Arg.(value & opt_all fault_conv []
       & info [ "inject" ]
           ~docv:"PHASE[:FUNC][=crash|exhaust|pts-bitflip|drop-vfg-edge|gamma-flip]"
           ~doc:"Inject a fault (repeatable). crash/exhaust fire at a phase \
                 boundary and the pipeline must degrade, not crash; the \
                 corruption kinds silently damage a finished artifact \
                 (andersen=pts-bitflip, vfg=drop-vfg-edge, \
                 resolve=gamma-flip), which the certificate checkers must \
                 catch. Phases: optim, andersen, callgraph, modref, memssa, \
                 vfg, resolve, opt2, instrument, verify.")

let quarantine_arg =
  Arg.(value & opt (some string) None
       & info [ "quarantine" ] ~docv:"DIR"
           ~doc:"Load the audit quarantine list from $(docv) \
                 (quarantine.list, as written by usherc audit); every \
                 listed function is forced onto full instrumentation.")

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run the certificate checkers (lib/verify) after each \
                 pipeline phase: replayed constraints for points-to, \
                 memory-SSA well-formedness, VFG structure and Γ \
                 fixpointness. A rejected certificate degrades soundly \
                 (function distrust or full instrumentation) instead of \
                 trusting the result.")

let knobs_of budget_ms verify inject quarantine =
  let knobs = { Usher.Config.default_knobs with budget_ms; verify; inject } in
  match quarantine with
  | None -> knobs
  | Some dir -> Audit.Quarantine.apply_dir dir knobs

let knobs_term =
  Term.(const knobs_of $ budget_ms_arg $ verify_arg $ inject_arg
        $ quarantine_arg)

(* ---- observability (lib/obs) ---- *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace_event timeline — one span per \
                 pipeline phase and per function, degradation/quarantine \
                 instant events, periodic GC samples — and write it to \
                 $(docv) on exit. Open the file in chrome://tracing or \
                 https://ui.perfetto.dev. Off by default; tracing never \
                 changes analysis results.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the process-wide metrics registry (work counters) \
                 after the command.")

let print_metrics () =
  Printf.printf "metrics:\n";
  List.iter
    (fun (name, n) -> Printf.printf "  %-34s %d\n" name n)
    (Obs.Metrics.snapshot ())

(** Run a command body under the requested observability: arm the tracer
    before any analysis, write the trace file on the way out (even when
    the command raises — a partial timeline of a crash is exactly when you
    want one), and dump metrics last. *)
let observed trace metrics (f : unit -> int) : int =
  if trace <> None then Obs.Trace.start ();
  let flush_trace () =
    match trace with
    | None -> ()
    | Some path ->
      Obs.Trace.write path;
      Printf.printf "(wrote Chrome trace to %s; open in chrome://tracing or \
                     ui.perfetto.dev)\n"
        path
  in
  match f () with
  | code ->
    flush_trace ();
    if metrics then print_metrics ();
    code
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    flush_trace ();
    Printexc.raise_with_backtrace e bt

let dump_arg =
  Arg.(value & opt_all (enum [ ("ir", `Ir); ("memssa", `Memssa); ("vfg", `Vfg);
                               ("plan", `Plan); ("cfg-dot", `Cfg_dot);
                               ("vfg-dot", `Vfg_dot) ]) []
       & info [ "dump" ]
           ~doc:"Dump an artifact: ir, memssa, vfg, plan, cfg-dot or vfg-dot \
                 (the -dot forms are Graphviz).")

(* ---- reports shared by analyze, run, check and bench ---- *)

(* Report the certificate checkers' summaries (--verify) and what the
   resilience ladder did, if anything. *)
let print_degradation (a : Usher.Pipeline.analysis)
    (front_events : Usher.Degrade.event list) =
  List.iter
    (fun r -> Printf.printf "verify: %s\n" (Verify.Report.summary_line r))
    a.verify_reports;
  List.iter
    (fun e -> Printf.printf "%s\n" (Usher.Degrade.to_string e))
    (front_events @ !(a.events));
  if a.degraded_all then
    Printf.printf
      "analysis degraded: every variant uses full (MSan) instrumentation\n"
  else begin
    match Usher.Pipeline.distrusted_functions a with
    | [] -> ()
    | fns ->
      Printf.printf "degraded functions (full instrumentation): %s\n"
        (String.concat ", " fns)
  end

(* ---- analyze ---- *)

let print_dump prog (a : Usher.Pipeline.analysis) (plan : Instr.Item.plan) =
  function
  | `Ir -> print_string (Ir.Printer.prog_to_string prog)
  | `Memssa -> print_string (Memssa.to_string a.mssa)
  | `Vfg ->
    Vfg.Graph.iter_nodes
      (fun id n ->
        let mark = if Vfg.Resolve.is_undef a.gamma id then "BOT" else "TOP" in
        Printf.printf "%4d %s %s\n" id mark
          (Vfg.Graph.node_to_string prog a.pa.objects n);
        Vfg.Graph.iter_succs a.vfg.graph id (fun d k ->
            Printf.printf "       -> %s%s\n"
              (Vfg.Graph.node_to_string prog a.pa.objects
                 (Vfg.Graph.node_of a.vfg.graph d))
              (if Vfg.Graph.is_intra k then ""
               else Printf.sprintf " [%s]" (Vfg.Graph.kind_to_string k))))
      a.vfg.graph
  | `Cfg_dot -> print_string (Ir.Dot.prog_to_string prog)
  | `Vfg_dot -> print_string (Vfg.Dot.to_string ~gamma:a.gamma a.vfg)
  | `Plan ->
    Array.iteri
      (fun lbl items ->
        List.iter
          (fun (it : Instr.Item.item) ->
            Printf.printf "l%d %s: %s\n" lbl
              (match it.pos with Instr.Item.Before -> "pre " | After -> "post")
              (Instr.Item.action_to_string prog it.act))
          (List.rev items))
      plan.items

let analyze_cmd =
  let run file level variant dumps knobs trace metrics =
    observed trace metrics @@ fun () ->
    let src = read_file file in
    let prog, front_events = Usher.Pipeline.front_guarded ~level ~knobs src in
    let a = Usher.Pipeline.analyze ~knobs prog in
    let plan, guided = Usher.Experiment.plan_for level a variant in
    let stats = Instr.Item.stats_of plan in
    (* Table 1's %B and S come from the Usher_TL+AT and Usher_OptI plans'
       traversals. Each variant is planned once, so every planning fault is
       observed once and listed in the degradation report. *)
    let traversal v =
      if v = variant then guided else snd (Usher.Pipeline.plan_for a v)
    in
    let tl_at = traversal Usher.Config.Usher_tl_at in
    let opt1 = traversal Usher.Config.Usher_opt1 in
    let t1 = Usher.Analysis_stats.compute ~traversals:(tl_at, opt1) ~src a in
    (* dumps precede the stats lines *)
    List.iter (print_dump prog a plan) dumps;
    Printf.printf "variant: %s\n" (Usher.Config.variant_name variant);
    Printf.printf
      "statements: %d   Var_TL: %d   Var_AT: %d stack / %d heap / %d global\n"
      (Ir.Prog.size prog) t1.var_tl t1.var_at_stack t1.var_at_heap
      t1.var_at_global;
    Printf.printf
      "VFG nodes: %d (%.0f%% need tracking)   stores: %.0f%% strong, %.0f%% \
       weak-singleton\n"
      t1.vfg_nodes t1.pct_reaching t1.pct_strong t1.pct_weak_singleton;
    Printf.printf "static shadow propagations: %d   checks: %d   items: %d\n"
      stats.propagations stats.checks stats.total_items;
    Printf.printf
      "pointer solver: %d iterations, %d cycles collapsed, %d copy edges \
       deduped\n"
      t1.pa_solve_iterations t1.pa_sccs_collapsed t1.pa_edges_deduped;
    Printf.printf
      "resolution: %d states, %d VFG SCCs collapsed (condensation ratio %.3f)\n"
      t1.resolve_states t1.resolve_condensed_sccs t1.condensation_ratio;
    (match guided with
    | Some g ->
      Printf.printf
        "guided traversal reached %d nodes; Opt I simplified %d closures\n"
        g.needed_nodes g.opt1_simplified
    | None -> ());
    Printf.printf "Opt II redirected %d nodes\n" a.opt2.redirected;
    print_degradation a front_events;
    0
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Statically analyze a TinyC program")
    Term.(const run $ file_arg $ level_arg $ variant_arg $ dump_arg $ knobs_term
          $ trace_arg $ metrics_arg)

(* ---- run ---- *)

let run_cmd =
  let run file level variant knobs trace metrics =
    observed trace metrics @@ fun () ->
    let prog, front_events =
      Usher.Pipeline.front_guarded ~level ~knobs (read_file file)
    in
    let a = Usher.Pipeline.analyze ~knobs prog in
    let plan, _ = Usher.Experiment.plan_for level a variant in
    print_degradation a front_events;
    let { Runtime.Interp.native; per_lane } =
      Runtime.Interp.run_lanes
        (Runtime.Interp.attach_lanes (Runtime.Interp.compile_base prog) [ plan ])
    in
    let o = per_lane.(0) in
    List.iter (fun v -> Printf.printf "output: %d\n" v) o.outputs;
    Printf.printf "exit: %d\n" o.exit_value;
    List.iter
      (fun l -> Printf.printf "WARNING: use of undefined value at statement l%d\n" l)
      (Runtime.Interp.detection_labels o);
    Printf.printf "slowdown vs native: %.1f%%  (%d shadow ops over %d base ops)\n"
      (Runtime.Costmodel.slowdown_pct ~native:native.counters
         ~instrumented:o.counters ())
      (Runtime.Counters.shadow_ops o.counters)
      (Runtime.Counters.base_ops o.counters);
    (* Exit code: any ground-truth undefined use (from the native run) the
       instrumented run fails to cover is a soundness divergence. *)
    let escaped =
      List.sort compare (Usher.Experiment.escaped prog ~native o)
    in
    List.iter
      (fun l ->
        Printf.printf
          "SOUNDNESS: undefined use at statement l%d escaped %s instrumentation\n"
          l (Usher.Config.variant_name variant))
      escaped;
    if escaped <> [] then 4
    else if Hashtbl.length o.detections > 0 then 3
    else 0
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a TinyC program under instrumentation. Exits 0 when \
             clean, 3 when a use of an undefined value is detected, 4 when \
             a ground-truth undefined use escapes the instrumentation.")
    Term.(const run $ file_arg $ level_arg $ variant_arg $ knobs_term
          $ trace_arg $ metrics_arg)

(* ---- check ---- *)

let check_cmd =
  let run file level knobs incident_dir trace metrics =
    observed trace metrics @@ fun () ->
    let knobs = { knobs with Usher.Config.verify = true } in
    let src = read_file file in
    let prog, front_events = Usher.Pipeline.front_guarded ~level ~knobs src in
    let a = Usher.Pipeline.analyze ~knobs prog in
    print_degradation a front_events;
    let rejected =
      List.filter (fun r -> not (Verify.Report.ok r)) a.verify_reports
    in
    let violations = List.concat_map Verify.Report.errors rejected in
    let aborted = Usher.Pipeline.aborted_checkers a in
    (* A rejection decides first: the ladder may have degraded to rung 4
       because of it, and that must not read as "nothing to certify". *)
    if violations <> [] then begin
      List.iter
        (fun (v : Verify.Report.violation) ->
          Printf.printf "violation%s: %s\n"
            (match v.vfunc with Some fn -> " in " ^ fn | None -> "")
            (Diag.to_string v.vdiag))
        violations;
      let inc =
        Audit.Incident.make ~kind:Audit.Incident.Static_violation
          ~variant:
            (String.concat "+"
               (List.map (fun (r : Verify.Report.t) -> r.checker) rejected))
          ~seed:0 ~mutation:""
          ~functions:
            (List.sort_uniq compare
               (List.filter_map
                  (fun (v : Verify.Report.violation) -> v.vfunc)
                  violations))
          ~labels:[] ~knobs:(Audit.Loop.knobs_summary knobs) ~source:src ()
      in
      Printf.printf
        "check: %d certificate violation(s); incident recorded at %s\n"
        (List.length violations)
        (Audit.Incident.save ~dir:incident_dir inc);
      5
    end
    else if aborted <> [] then begin
      Printf.printf "check: checker(s) aborted, results unverified: %s\n"
        (String.concat ", " aborted);
      1
    end
    else if a.degraded_all then begin
      (* Rung 4 left no static results in use — there is nothing to
         certify, and full instrumentation is sound by construction. *)
      Printf.printf
        "check: analysis degraded to full instrumentation; no static \
         certificates in use\n";
      0
    end
    else begin
      Printf.printf "check: all certificates verified\n";
      0
    end
  in
  let incident_dir_arg =
    Arg.(value & opt string ".usher-audit"
         & info [ "incident-dir" ] ~docv:"DIR"
             ~doc:"Directory for static-violation incident artifacts \
                   (written only when a certificate is rejected).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Certify the static analysis of a TinyC program: run the \
             analysis with the certificate checkers on (as $(b,--verify) \
             does, so that flag is redundant here), which replay the \
             Andersen constraints against the points-to solution, check \
             memory-SSA well-formedness, replay the VFG construction rules \
             and validate Γ as a fixpoint of F-reachability. Exits 5 when \
             any checker finds a violation (an incident artifact is then \
             recorded), else 1 when a checker aborted, else 0.")
    Term.(const run $ file_arg $ level_arg $ knobs_term $ incident_dir_arg
          $ trace_arg $ metrics_arg)

(* ---- gen ---- *)

let gen_cmd =
  let run name scale =
    let p = Workloads.Spec2000.find name in
    print_string (Workloads.Spec2000.source ~scale p);
    0
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let scale_arg =
    Arg.(value & opt int 30 & info [ "scale" ] ~doc:"Input scale (100 = nominal).")
  in
  Cmd.v (Cmd.info "gen" ~doc:"Print a SPEC2000-analog TinyC source")
    Term.(const run $ name_arg $ scale_arg)

(* ---- bench ---- *)

exception Unknown_bench of string

let bench_cmd =
  let run name scale level knobs trace metrics =
    observed trace metrics @@ fun () ->
    let p =
      try Workloads.Spec2000.find name
      with Not_found -> raise (Unknown_bench name)
    in
    let src = Workloads.Spec2000.source ~scale p in
    match Usher.Experiment.run ~name ~level ~knobs src with
    | exception Usher.Experiment.Unsound msg ->
      Printf.printf "SOUNDNESS: %s\n" msg;
      4
    | e ->
      Printf.printf "%s at %s (scale %d):\n" name
        (Optim.Pipeline.level_to_string level)
        scale;
      List.iter
        (fun (r : Usher.Experiment.variant_result) ->
          Printf.printf
            "  %-12s slowdown %6.1f%%  props %6d  checks %5d  detections %d\n"
            (Usher.Config.variant_name r.variant)
            r.slowdown_pct r.static_stats.propagations r.static_stats.checks
            (List.length r.detections))
        e.results;
      print_degradation e.analysis [];
      if
        List.exists
          (fun (r : Usher.Experiment.variant_result) -> r.detections <> [])
          e.results
      then 3
      else 0
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let scale_arg =
    Arg.(value & opt int 30 & info [ "scale" ] ~doc:"Input scale (100 = nominal).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run one SPEC2000 analog end to end. Exits 0 when clean, 3 when \
             undefined uses are detected, 4 on a soundness divergence.")
    Term.(const run $ name_arg $ scale_arg $ level_arg $ knobs_term
          $ trace_arg $ metrics_arg)

(* ---- audit and fuzz: campaigns of the soundness sentinel ---- *)

let campaign_dir_arg =
  Arg.(value & opt string ".usher-audit"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Incident artifact + quarantine directory.")

let no_reduce_arg =
  Arg.(value & flag
       & info [ "no-reduce" ] ~doc:"Skip ddmin reduction of soundness incidents.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the final summary.")

(** The settings [audit] and [fuzz] share; the two spell [--seed] and
    [--inject-hole] differently. *)
let campaign_term ~seed_arg ~hole_arg =
  let make seed budget_ms dir hole no_reduce quiet level =
    {
      Audit.Loop.default_config with
      seed;
      budget_ms;
      dir;
      hole;
      minimize = not no_reduce;
      level;
      log = (if quiet then ignore else fun s -> Printf.printf "%s\n%!" s);
    }
  in
  Term.(const make $ seed_arg $ budget_ms_arg $ campaign_dir_arg $ hole_arg
        $ no_reduce_arg $ quiet_arg $ level_arg)

let print_incidents (s : Audit.Loop.summary) =
  Printf.printf
    "incidents: %d soundness, %d precision  quarantined: %s  healed: %d\n"
    s.soundness_incidents s.precision_incidents
    (match s.quarantined with [] -> "none" | q -> String.concat ", " q)
    s.healed

let audit_cmd =
  let run corpus scale mutants cfg trace metrics =
    observed trace metrics @@ fun () ->
    let profiles =
      match corpus with
      | [] -> Workloads.Spec2000.all
      | names ->
        List.map
          (fun n ->
            try Workloads.Spec2000.find n
            with Not_found ->
              Diag.error Diag.Driver "unknown benchmark %s" n)
          names
    in
    let s = Audit.Loop.run cfg ~profiles ~scale ~mutants in
    Printf.printf
      "audit: %d program(s), %d mutant(s), %d skipped%s\n"
      (s.audited - s.mutants_run) s.mutants_run s.skipped
      (if s.out_of_time then " (budget expired)" else "");
    print_incidents s;
    List.iter
      (fun (i : Audit.Incident.t) ->
        Printf.printf "  %s %s (%s)\n"
          (Audit.Incident.kind_name i.kind) i.id i.variant)
      s.incidents;
    if s.soundness_incidents > 0 then 4 else 0
  in
  let corpus_arg =
    Arg.(value & opt_all string []
         & info [ "corpus" ] ~docv:"BENCHMARK"
             ~doc:"Audit only this benchmark profile (repeatable); default \
                   is the whole SPEC2000-analog corpus.")
  in
  let scale_arg =
    Arg.(value & opt int 5
         & info [ "scale" ] ~doc:"Input scale for generated programs.")
  in
  let mutants_arg =
    Arg.(value & opt int 3
         & info [ "mutants" ] ~doc:"AST mutants audited per base program.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fuzzing seed (determinism).")
  in
  let hole_arg =
    Arg.(value & opt (some string) None
         & info [ "inject-hole" ] ~docv:"PREFIX"
             ~doc:"Test hook: delete every check guided plans place in \
                   functions whose name starts with $(docv) — a seeded \
                   soundness bug the sentinel must catch.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Differential soundness audit: run workload-generated programs \
             and AST mutants through every variant, cross-check detections \
             against interpreter ground truth, capture + reduce incidents, \
             and quarantine implicated functions. Exits 4 if any soundness \
             incident was captured, 0 otherwise.")
    Term.(const run $ corpus_arg $ scale_arg $ mutants_arg
          $ campaign_term ~seed_arg ~hole_arg $ trace_arg $ metrics_arg)

let fuzz_cmd =
  let run count size corpus distill promote campaign trace metrics =
    observed trace metrics @@ fun () ->
    match promote with
    | Some src_dir ->
      let dst_dir = Option.value corpus ~default:"examples/corpus" in
      let p = Audit.Fuzz.promote campaign ~src_dir ~dst_dir in
      Printf.printf
        "promote: %d examined, %d promoted, %d redundant, %d rejected -> %s \
         (%d member(s))\n"
        p.p_examined p.p_promoted p.p_redundant p.p_rejected dst_dir p.p_total;
      0
    | None ->
      let s =
        Audit.Fuzz.run { campaign; count; size; corpus; distill }
      in
      Printf.printf
        "fuzz: %d generated, %d audited, %d skipped%s in %.2fs (oracle %.2fs)\n"
        s.subjects s.audited s.skipped
        (if s.out_of_time then " (budget expired)" else "")
        s.elapsed_s s.oracle_s;
      print_incidents s;
      Option.iter
        (fun cdir ->
          Printf.printf "corpus: %d distilled this run, %d total\n"
            s.distilled
            (List.length (Audit.Fuzz.corpus_members cdir)))
        corpus;
      List.iter
        (fun (i : Audit.Incident.t) ->
          Printf.printf "  %s %s (%s) hits %d\n"
            (Audit.Incident.kind_name i.kind) i.id i.variant i.hits)
        s.incidents;
      if s.soundness_incidents > 0 then 4 else 0
  in
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count" ] ~doc:"Programs to generate and audit.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Campaign root seed. Per-program seeds are a pure \
                   function of (seed, index), so a campaign replays \
                   identically.")
  in
  let size_arg =
    Arg.(value & opt int 3
         & info [ "size" ] ~doc:"Generator size (helper functions per program).")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Persisted corpus directory for distilled programs \
                   (fuzz-<digest>.c plus corpus.features).")
  in
  let distill_arg =
    Arg.(value & flag
         & info [ "distill" ]
             ~doc:"Promote programs whose coverage fingerprint contributes \
                   a feature no earlier program did into $(b,--corpus).")
  in
  let promote_arg =
    Arg.(value & opt (some string) None
         & info [ "promote" ] ~docv:"DIR"
             ~doc:"Instead of running a campaign, promote distilled \
                   programs from the corpus in $(docv) into a curated \
                   corpus ($(b,--corpus), default examples/corpus): each \
                   member is re-run through the differential oracle and \
                   copied — stable fuzz-<digest>.c name, its features \
                   merged into the curated corpus.features — exactly \
                   when its fingerprint contributes a feature the \
                   curated corpus lacks. Idempotent.")
  in
  let hole_arg =
    Arg.(value & opt (some string) None
         & info [ "inject-hole" ] ~docv:"PREFIX"
             ~doc:"Test hook: delete every check guided plans place in \
                   functions whose name starts with $(docv). Generated \
                   helpers are prefixed fz, so --inject-hole fz seeds a \
                   hole the fuzzer must find, reduce and quarantine.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Generative differential fuzzing: generate seeded, \
             deterministic, always-terminating TinyC programs weighted \
             toward address-taken locals, function pointers, partial \
             struct initialization, aliasing stores and loop-carried \
             undef values; run each through the interpreter-vs-variants \
             differential oracle; ddmin-reduce and checksum-dedup any \
             divergence into incident artifacts; quarantine implicated \
             functions; optionally distill novel-coverage programs into a \
             persisted corpus. Exits 4 if any soundness incident was \
             captured, 0 otherwise.")
    Term.(const run $ count_arg $ size_arg $ corpus_arg $ distill_arg
          $ promote_arg $ campaign_term ~seed_arg ~hole_arg $ trace_arg
          $ metrics_arg)

let main =
  Cmd.group
    (Cmd.info "usherc" ~version:"1.0.0"
       ~doc:"Usher: static value-flow analysis accelerating undefined-value detection")
    [ analyze_cmd; run_cmd; check_cmd; gen_cmd; bench_cmd; audit_cmd;
      fuzz_cmd ]

(* Structured diagnostics (bad source, interpreter traps) exit cleanly
   with the located message instead of a backtrace. *)
let () =
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception Diag.Error d ->
    prerr_endline ("usherc: " ^ Diag.to_string d);
    exit 1
  | exception Unknown_bench name ->
    prerr_endline ("usherc: unknown benchmark " ^ name);
    exit 1
  | exception Runtime.Interp.Runtime_error msg ->
    prerr_endline ("usherc: runtime error: " ^ msg);
    exit 1
  | exception Runtime.Interp.Resource_exhausted { what; limit } ->
    prerr_endline
      (Printf.sprintf "usherc: interpreter limit exhausted: %s (limit %d)" what
         limit)
    ;
    exit 1
