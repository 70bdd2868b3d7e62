(* usherc — command-line driver for the Usher library.

     usherc analyze FILE   static analysis: stats, optional artifact dumps
     usherc run FILE       execute under a chosen instrumentation variant
     usherc check FILE     certificate check: independently re-verify the
                           points-to, memory-SSA and VFG/Γ results
     usherc gen NAME       print a SPEC2000-analog TinyC source
     usherc bench NAME     one benchmark end to end (all variants)
     usherc audit          differential soundness audit over the corpus
     usherc fuzz           generative differential fuzzing (or daemon soak)
     usherc serve          analysis-as-a-service daemon (NDJSON protocol)

   Programs are TinyC sources (see README).

   The analyze/run/check/bench bodies live in [Serve.Handlers], shared
   verbatim with the daemon — a served reply is byte-identical to the
   one-shot run by construction.

   Exit codes (run, bench, audit, check; serve mirrors them as reply
   codes):
     0  clean
     3  a use of an undefined value was detected
     4  soundness divergence: a ground-truth undefined use escaped the
        instrumentation (or, for audit, any captured soundness incident)
     5  a certificate checker rejected a static-analysis result
     6  (serve replies) overloaded: shed by admission control or drain
     7  (serve replies) quarantined: the request crashed its worker past
        the retry cap; an incident artifact was filed *)

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

let engine_conv =
  let parse s =
    match Vm.Engine.of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg ("unknown engine " ^ s))
  in
  Arg.conv (parse, fun ppf e -> Fmt.string ppf (Vm.Engine.name e))

let engine_doc =
  "Execution engine: interp (the reference interpreter) or vm (the \
   bytecode VM). Both give identical outcomes. The VM dispatches faster \
   but pays to lower each plan to bytecode first, so it wins only on \
   programs that run many steps per instruction."

(* audit and fuzz: the interpreter is the default oracle. *)
let engine_arg =
  Arg.(value & opt engine_conv Vm.Engine.Interp
       & info [ "engine" ] ~doc:engine_doc)

(* run and bench: absent means the native run goes to the interpreter and
   the instrumented runs to the engine Vm.Engine.choose picks from its
   step count. *)
let engine_opt_arg =
  Arg.(value & opt (some engine_conv) None
       & info [ "engine" ]
           ~doc:(engine_doc ^ " Default: the interpreter for the native \
                 run, then the VM for the instrumented runs if the native \
                 run executed at least 64 steps per IR instruction, else \
                 the interpreter."))

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* ---- resource budgets and fault injection ---- *)

let budget_ms_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-ms" ]
           ~doc:"Wall-clock budget for the whole analysis, in milliseconds. \
                 Phases that outlive it degrade soundly instead of crashing.")

let solver_fuel_arg =
  Arg.(value & opt (some int) None
       & info [ "solver-fuel" ]
           ~doc:"Maximum Andersen worklist iterations before degradation.")

let vfg_cap_arg =
  Arg.(value & opt (some int) None
       & info [ "vfg-cap" ] ~doc:"Maximum VFG nodes before degradation.")

let resolve_fuel_arg =
  Arg.(value & opt (some int) None
       & info [ "resolve-fuel" ]
           ~doc:"Maximum Γ-resolution states before degradation.")

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

let summaries_arg =
  Arg.(value & flag
       & info [ "summaries" ]
           ~doc:"Resolve Γ compositionally from per-function value-flow \
                 summaries solved bottom-up over the call graph \
                 (lib/summary) instead of the monolithic whole-program \
                 search. Γ, instrumentation plans and certificates are \
                 byte-identical by contract. Implied by $(b,--cache).")

let no_summaries_arg =
  Arg.(value & flag
       & info [ "no-summaries" ]
           ~doc:"Force the monolithic resolution path even when \
                 $(b,--summaries) or $(b,--cache) is given.")

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"DIR"
           ~doc:"Persist per-SCC value-flow summaries under $(docv), keyed \
                 by a content hash of each SCC's IR, its value-flow \
                 fragment and its callees' keys: editing one function \
                 re-analyzes only it and its transitive callers. Entries \
                 are checksummed; a corrupt entry is removed and \
                 recomputed, never trusted. Implies $(b,--summaries).")

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run the certificate checkers (lib/verify) after each \
                 pipeline phase: replayed constraints for points-to, \
                 memory-SSA well-formedness, VFG structure and Γ \
                 fixpointness. A rejected certificate degrades soundly \
                 (function distrust or full instrumentation) instead of \
                 trusting the result.")

let knobs_of budget_ms solver_fuel vfg_cap resolve_fuel summaries no_summaries
    cache verify inject quarantine =
  let knobs =
    {
      Usher.Config.default_knobs with
      budget_ms;
      solver_fuel;
      vfg_node_cap = vfg_cap;
      resolve_fuel;
      summaries = (summaries || cache <> None) && not no_summaries;
      summary_cache = (if no_summaries then None else cache);
      verify;
      inject;
    }
  in
  match quarantine with
  | None -> knobs
  | Some dir -> Audit.Quarantine.apply_dir dir knobs

let knobs_term =
  Term.(const knobs_of $ budget_ms_arg $ solver_fuel_arg $ vfg_cap_arg
        $ resolve_fuel_arg $ summaries_arg $ no_summaries_arg $ cache_arg
        $ verify_arg $ inject_arg $ quarantine_arg)

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
           ~doc:"Print the process-wide metrics registry (work counters, \
                 gauges, log2-bucket histograms) after the command.")

let print_metrics () =
  Printf.printf "metrics:\n";
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Counter n -> Printf.printf "  %-34s %d\n" name n
      | Obs.Metrics.Gauge g -> Printf.printf "  %-34s %g\n" name g
      | Obs.Metrics.Histogram { count; sum; buckets } ->
        Printf.printf "  %-34s count %d sum %d buckets %s\n" name count sum
          (String.concat " "
             (List.map
                (fun (lo, n) -> Printf.sprintf "%d:%d" lo n)
                buckets)))
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

(* ---- analyze ---- *)

let analyze_cmd =
  let run file level variant dumps knobs trace metrics =
    observed trace metrics @@ fun () ->
    let src = read_file file in
    (* dumps print between planning and the stats report, straight to
       stdout — the handler's buffer is printed after, preserving the
       dumps-then-stats order. *)
    let on_analysis prog (a : Usher.Pipeline.analysis)
        (plan : Instr.Item.plan) =
      List.iter
        (function
          | `Ir -> print_string (Ir.Printer.prog_to_string prog)
          | `Memssa -> print_string (Memssa.to_string a.mssa)
          | `Vfg ->
            Vfg.Graph.iter_nodes
              (fun id n ->
                let mark = if Vfg.Resolve.is_undef a.gamma id then "BOT" else "TOP" in
                Printf.printf "%4d %s %s\n" id mark
                  (Vfg.Graph.node_to_string prog a.pa.objects n);
                List.iter
                  (fun (d, k) ->
                    let kind =
                      match k with
                      | Vfg.Graph.Eintra -> ""
                      | Vfg.Graph.Ecall l -> Printf.sprintf " [call l%d]" l
                      | Vfg.Graph.Eret l -> Printf.sprintf " [ret l%d]" l
                    in
                    Printf.printf "       -> %s%s\n"
                      (Vfg.Graph.node_to_string prog a.pa.objects
                         (Vfg.Graph.node_of a.vfg.graph d))
                      kind)
                  (Vfg.Graph.succs a.vfg.graph id))
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
              plan.items)
        dumps
    in
    let b = Buffer.create 1024 in
    let code = Serve.Handlers.analyze ~on_analysis ~knobs ~level ~variant b src in
    print_string (Buffer.contents b);
    code
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Statically analyze a TinyC program")
    Term.(const run $ file_arg $ level_arg $ variant_arg $ dump_arg $ knobs_term
          $ trace_arg $ metrics_arg)

(* ---- run ---- *)

let run_cmd =
  let run file level variant engine knobs trace metrics =
    observed trace metrics @@ fun () ->
    let b = Buffer.create 1024 in
    let code =
      Serve.Handlers.run ~knobs ~level ~variant ?engine b (read_file file)
    in
    print_string (Buffer.contents b);
    code
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a TinyC program under instrumentation. Exits 0 when \
             clean, 3 when a use of an undefined value is detected, 4 when \
             a ground-truth undefined use escapes the instrumentation.")
    Term.(const run $ file_arg $ level_arg $ variant_arg $ engine_opt_arg
          $ knobs_term $ trace_arg $ metrics_arg)

(* ---- check ---- *)

let check_cmd =
  let run file level knobs incident_dir trace metrics =
    observed trace metrics @@ fun () ->
    let b = Buffer.create 1024 in
    let code =
      Serve.Handlers.check ~knobs ~level ~incident_dir b (read_file file)
    in
    print_string (Buffer.contents b);
    code
  in
  let incident_dir_arg =
    Arg.(value & opt string ".usher-audit"
         & info [ "incident-dir" ] ~docv:"DIR"
             ~doc:"Directory for static-violation incident artifacts \
                   (written only when a certificate is rejected).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Independently re-verify the static analysis of a TinyC \
             program: replay the Andersen constraints against the \
             points-to solution, check memory-SSA well-formedness, replay \
             the VFG construction rules, and validate Γ as a fixpoint of \
             F-reachability. Exits 0 when every certificate verifies, 5 \
             when any checker finds a violation (an incident artifact is \
             then recorded).")
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

let bench_cmd =
  let run name scale level engine knobs trace metrics =
    observed trace metrics @@ fun () ->
    let b = Buffer.create 1024 in
    let code = Serve.Handlers.bench ~knobs ~level ~scale ?engine b name in
    print_string (Buffer.contents b);
    code
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
    Term.(const run $ name_arg $ scale_arg $ level_arg $ engine_opt_arg
          $ knobs_term $ trace_arg $ metrics_arg)

(* ---- audit ---- *)

let audit_cmd =
  let run corpus scale mutants seed budget_ms dir hole no_reduce quiet level
      engine trace metrics =
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
    let cfg =
      {
        Audit.Loop.default_config with
        profiles;
        scale;
        mutants;
        seed;
        budget_ms;
        dir;
        hole;
        minimize = not no_reduce;
        level;
        engine;
        log = (if quiet then ignore else fun s -> Printf.printf "%s\n%!" s);
      }
    in
    let s = Audit.Loop.run cfg in
    Printf.printf
      "audit: %d program(s), %d mutant(s), %d skipped%s\n"
      s.programs s.mutants_run s.skipped
      (if s.out_of_time then " (budget expired)" else "");
    Printf.printf
      "incidents: %d soundness, %d precision  quarantined: %s  healed: %d\n"
      s.soundness_incidents s.precision_incidents
      (match s.quarantined with [] -> "none" | q -> String.concat ", " q)
      s.healed;
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
  let dir_arg =
    Arg.(value & opt string ".usher-audit"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Incident artifact + quarantine directory.")
  in
  let hole_arg =
    Arg.(value & opt (some string) None
         & info [ "inject-hole" ] ~docv:"PREFIX"
             ~doc:"Test hook: delete every check guided plans place in \
                   functions whose name starts with $(docv) — a seeded \
                   soundness bug the sentinel must catch.")
  in
  let no_reduce_arg =
    Arg.(value & flag
         & info [ "no-reduce" ]
             ~doc:"Skip ddmin reduction of soundness incidents.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the final summary.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Differential soundness audit: run workload-generated programs \
             and AST mutants through every variant, cross-check detections \
             against interpreter ground truth, capture + reduce incidents, \
             and quarantine implicated functions. Exits 4 if any soundness \
             incident was captured, 0 otherwise.")
    Term.(const run $ corpus_arg $ scale_arg $ mutants_arg $ seed_arg
          $ budget_ms_arg $ dir_arg $ hole_arg $ no_reduce_arg $ quiet_arg
          $ level_arg $ engine_arg $ trace_arg $ metrics_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run count seed size jobs budget_ms dir corpus distill promote hole
      no_reduce quiet via_serve window no_faults level engine trace metrics =
    observed trace metrics @@ fun () ->
    let log = if quiet then ignore else fun s -> Printf.printf "%s\n%!" s in
    match via_serve with
    | Some socket ->
      (* soak mode: stream the same generated campaign at a running
         daemon and audit the reply stream instead of running the
         oracle locally *)
      let s =
        Serve.Soak.run
          {
            Serve.Soak.socket;
            count;
            seed;
            size;
            window;
            budget_ms;
            faults = not no_faults;
            log;
          }
      in
      Printf.printf "%s\n" (Serve.Soak.summary_to_string s);
      List.iter
        (fun (k, v) -> Printf.printf "  server %s: %d\n" k v)
        s.server_totals;
      Serve.Soak.exit_code s
    | None -> (
      let cfg =
        {
          Audit.Fuzz.default_config with
          count;
          seed;
          size;
          jobs;
          budget_ms;
          dir;
          corpus;
          distill;
          hole;
          minimize = not no_reduce;
          level;
          engine;
          log;
        }
      in
      match promote with
      | Some src_dir ->
        let dst_dir = Option.value corpus ~default:"examples/corpus" in
        let p = Audit.Fuzz.promote cfg ~src_dir ~dst_dir in
        Printf.printf
          "promote: %d examined, %d promoted, %d redundant, %d rejected -> \
           %s (%d member(s))\n"
          p.p_examined p.p_promoted p.p_redundant p.p_rejected dst_dir
          p.p_total;
        0
      | None ->
      let s = Audit.Fuzz.run cfg in
      Printf.printf
        "fuzz: %d generated, %d audited, %d skipped%s in %.2fs (oracle %.2fs)\n"
        s.generated s.audited s.skipped
        (if s.out_of_time then " (budget expired)" else "")
        s.elapsed_s s.oracle_s;
      Printf.printf
        "incidents: %d soundness, %d precision  quarantined: %s  healed: %d\n"
        s.soundness_incidents s.precision_incidents
        (match s.quarantined with [] -> "none" | q -> String.concat ", " q)
        s.healed;
      if corpus <> None then
        Printf.printf "corpus: %d distilled this run, %d total\n" s.distilled
          s.corpus_total;
      List.iter
        (fun (i : Audit.Incident.t) ->
          Printf.printf "  %s %s (%s) hits %d\n"
            (Audit.Incident.kind_name i.kind) i.id i.variant i.hits)
        s.incidents;
      if s.soundness_incidents > 0 then 4 else 0)
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
                   identically whatever $(b,--jobs) is.")
  in
  let size_arg =
    Arg.(value & opt int 3
         & info [ "size" ] ~doc:"Generator size (helper functions per program).")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~doc:"Parallel oracle runs (domains).")
  in
  let dir_arg =
    Arg.(value & opt string ".usher-audit"
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Incident artifact + quarantine directory.")
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
  let no_reduce_arg =
    Arg.(value & flag
         & info [ "no-reduce" ]
             ~doc:"Skip ddmin reduction of soundness incidents.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the final summary.")
  in
  let via_serve_arg =
    Arg.(value & opt (some string) None
         & info [ "via-serve" ] ~docv:"SOCKET"
             ~doc:"Soak mode: instead of auditing locally, stream the \
                   generated campaign as concurrent analyze/run/check \
                   requests at the usherc serve daemon listening on \
                   $(docv), with fault injection woven in, and audit the \
                   reply stream (no lost or duplicated replies; shed \
                   only by admission control or drain). Exits 0 when the \
                   contract held and everything was answered, 2 when the \
                   server drained mid-burst (EOF tolerated), 1 on a \
                   protocol violation.")
  in
  let window_arg =
    Arg.(value & opt int 32
         & info [ "window" ]
             ~doc:"Soak mode: maximum requests in flight at once.")
  in
  let no_faults_arg =
    Arg.(value & flag
         & info [ "no-faults" ]
             ~doc:"Soak mode: disable the fault-injected request slice.")
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
             captured, 0 otherwise. With --via-serve, soak-test a \
             running daemon with the same traffic instead.")
    Term.(const run $ count_arg $ seed_arg $ size_arg $ jobs_arg
          $ budget_ms_arg $ dir_arg $ corpus_arg $ distill_arg $ promote_arg
          $ hole_arg $ no_reduce_arg $ quiet_arg $ via_serve_arg $ window_arg
          $ no_faults_arg $ level_arg $ engine_arg $ trace_arg $ metrics_arg)

(* ---- serve ---- *)

let serve_cmd =
  let run jobs socket max_queue max_inflight_ms default_budget_ms retries
      cache_cap incident_dir drain_ms knobs trace metrics =
    observed trace metrics @@ fun () ->
    let cfg =
      {
        Serve.Server.default_config with
        jobs;
        retries;
        cache_cap;
        incident_dir;
        drain_ms;
        knobs;
        admission =
          { Serve.Admission.max_queue; max_inflight_ms; default_budget_ms };
      }
    in
    let t = Serve.Server.create cfg in
    (* SIGTERM/SIGINT flip the drain flag; the intake loop's select
       timeout notices it within 50ms. Everything else (finish or shed
       in-flight, join workers) happens in [drain] below. *)
    let on_term _ = Serve.Server.begin_drain t in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle on_term)
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ];
    (* stdout carries only NDJSON replies; operator chatter goes to
       stderr. *)
    Printf.eprintf "usherc serve: %d worker domain(s) on %s\n%!" jobs
      (match socket with Some p -> "socket " ^ p | None -> "stdin/stdout");
    (match socket with
    | Some path -> Serve.Server.serve_socket t path
    | None ->
      Serve.Server.serve_fd t
        ~out:(Serve.Server.writer_of_fd Unix.stdout)
        Unix.stdin);
    Serve.Server.drain t;
    let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
    Printf.eprintf
      "usherc serve: drained clean (%d request(s), %d shed, %d retried, %d \
       quarantined)\n%!"
      (c "serve.requests") (c "serve.shed") (c "serve.retries")
      (c "serve.quarantined");
    0
  in
  let jobs_arg =
    Arg.(value & opt int 4
         & info [ "j"; "jobs" ] ~doc:"Worker domains in the analysis pool.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix socket at $(docv) instead of \
                   stdin/stdout.")
  in
  let max_queue_arg =
    Arg.(value & opt int Serve.Admission.default_config.max_queue
         & info [ "max-queue" ]
             ~doc:"Queued-request watermark: requests arriving with this \
                   many already waiting are shed with an overloaded reply.")
  in
  let max_inflight_ms_arg =
    Arg.(value & opt int Serve.Admission.default_config.max_inflight_ms
         & info [ "max-inflight-ms" ]
             ~doc:"Watermark on the sum of granted wall-clock budgets; \
                   admissions that would exceed it are shed.")
  in
  let default_budget_ms_arg =
    Arg.(value & opt int Serve.Admission.default_config.default_budget_ms
         & info [ "default-budget-ms" ]
             ~doc:"Wall-clock budget granted to requests that do not ask \
                   for one (and the cap on those that do).")
  in
  let retries_arg =
    Arg.(value & opt int Serve.Server.default_config.retries
         & info [ "retries" ]
             ~doc:"Transient worker-crash retries before a request is \
                   quarantined.")
  in
  let cache_cap_arg =
    Arg.(value & opt int Serve.Server.default_config.cache_cap
         & info [ "cache-cap" ]
             ~doc:"Content-hashed reply cache capacity (entries); 0 \
                   disables caching.")
  in
  let incident_dir_arg =
    Arg.(value & opt string Serve.Server.default_config.incident_dir
         & info [ "incident-dir" ] ~docv:"DIR"
             ~doc:"Directory for worker-crash quarantine incidents (and \
                   check violations).")
  in
  let drain_ms_arg =
    Arg.(value & opt int Serve.Server.default_config.drain_ms
         & info [ "drain-ms" ]
             ~doc:"Grace period on SIGTERM/EOF for in-flight requests \
                   before the queue is shed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the analysis daemon: newline-delimited JSON requests \
             (analyze/run/check/bench/stats/ping) on stdin or a Unix \
             socket, one reply object per line, each request crash-isolated \
             on a work-stealing pool of worker domains with admission \
             control, retry + quarantine, and a content-hashed reply \
             cache. Reply codes extend the CLI exit codes with 6 \
             (overloaded) and 7 (quarantined).")
    Term.(const run $ jobs_arg $ socket_arg $ max_queue_arg
          $ max_inflight_ms_arg $ default_budget_ms_arg $ retries_arg
          $ cache_cap_arg $ incident_dir_arg $ drain_ms_arg $ knobs_term
          $ trace_arg $ metrics_arg)

let main =
  Cmd.group
    (Cmd.info "usherc" ~version:"1.0.0"
       ~doc:"Usher: static value-flow analysis accelerating undefined-value detection")
    [ analyze_cmd; run_cmd; check_cmd; gen_cmd; bench_cmd; audit_cmd;
      fuzz_cmd; serve_cmd ]

(* Structured diagnostics (bad source, interpreter traps) exit cleanly
   with the located message instead of a backtrace. *)
let () =
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception Diag.Error d ->
    prerr_endline ("usherc: " ^ Diag.to_string d);
    exit 1
  | exception Serve.Handlers.Unknown_bench name ->
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
