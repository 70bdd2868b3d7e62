(* The end-to-end Usher pipeline (Fig. 3):

     source --Clang analog--> IR --O0+IM/O1/O2--> SSA IR
       --pointer analysis--> --memory SSA--> --VFG--> --Γ--> plans

   [analyze] produces every artifact shared by the variants; [plan_for]
   derives the instrumentation plan of one variant; [prepare] does both
   for every variant and compiles the base, running the Usher_TL half on
   a helper domain for a large program and planning the three variants
   over the full graph from one planning context (DESIGN.md §11).
   Analysis CPU time and allocation are recorded for Table 1.

   Resilience: every phase runs under an optional resource budget and a
   fault guard. Failures never escape as crashes and never lose checks —
   they walk down a degradation ladder whose every rung is sound because
   it only ever grows the ⊥ set / the instrumentation:

   - rung 1: Opt II faults (or any function is distrusted) → Usher keeps
     the pre-Opt-II Γ, i.e. redundant checks stay in;
   - rung 2: Γ resolution faults → Γ := all-undefined, i.e. guided
     instrumentation degenerates towards full;
   - rung 3: memory SSA or VFG construction faults on one function → that
     function is "distrusted": its VFG fragment is forced to ⊥, it gets
     the full (MSan) item set, and the calling protocol is relayed across
     the trust boundary;
   - rung 4: a whole-program phase (pointer analysis, call graph, mod/ref)
     faults → every variant degrades to full instrumentation.

   Every step down the ladder is recorded as a [Degrade.event]. *)

type analysis = {
  prog : Ir.Prog.t;
  pa : Analysis.Andersen.t;
  cg : Analysis.Callgraph.t;
  mr : Analysis.Modref.t;
  mssa : Memssa.t;
  vfg : Vfg.Build.t;                  (* full graph (TL+AT) *)
  gamma : Vfg.Resolve.gamma;          (* resolved on [vfg] *)
  vfg_tl : Vfg.Build.t;               (* top-level-only graph *)
  gamma_tl : Vfg.Resolve.gamma;
  opt2 : Vfg.Opt2.result;             (* Γ after redundant check elimination *)
  summary_stats : unit option;
      (* always [None]; kept only for the benchmark's record literal of
         this type, and goes with the next change to the benchmark *)
  analysis_time_s : float;
      (* CPU seconds of the analysis's thunks, summed over the domains
         they ran on, pointer analysis through Opt II *)
  analysis_mem_mb : float;
      (* MB the same thunks allocated *)
  phase_times_s : (string * float) list;
      (* wall-clock seconds per phase, in pipeline order *)
  knobs : Config.knobs;
  distrusted : (Ir.Types.fname, Diag.t) Hashtbl.t;
      (* functions whose static results are no longer trusted *)
  degraded_all : bool;                (* rung 4: everything falls back to MSan *)
  events : Degrade.event list ref;    (* the ladder's audit trail, in order *)
  verify_reports : Verify.Report.t list;
      (* certificate-checker reports, in pipeline order (empty unless
         [knobs.verify]) *)
}

(* Per-phase wall time distribution (microseconds, log2 buckets), across
   every analysis in the process — the bench harness snapshots it. *)
let m_phase_us = Obs.Metrics.histogram "pipeline.phase_us"

(* The frontend's passes, each a child span of [phase.frontend]. *)
let frontend_span name f = Obs.Trace.with_span ~cat:"pipeline" ("frontend." ^ name) f

let parse_and_lower src =
  let ast = frontend_span "parse" (fun () -> Tinyc.Parser.parse_program src) in
  frontend_span "lower" (fun () -> Tinyc.Lower.lower_program ast)

let optimize level prog =
  frontend_span "optimize" (fun () -> Optim.Pipeline.run level prog)

let front ?(level = Optim.Pipeline.O0_IM) (src : string) : Ir.Prog.t =
  Obs.Trace.with_span ~cat:"pipeline" "phase.frontend" @@ fun () ->
  let prog = parse_and_lower src in
  optimize level prog;
  prog

(* Guarded front end. Frontend diagnostics (lex/parse/lower) propagate —
   there is no sound fallback for source we cannot compile — but an
   optimizer fault degrades to a fresh unoptimized lowering, which is
   valid SSA by construction (the faulting pass may have left the first
   program half-rewritten). *)
let front_guarded ?(level = Optim.Pipeline.O0_IM)
    ?(knobs = Config.default_knobs) (src : string) :
    Ir.Prog.t * Degrade.event list =
  Obs.Trace.with_span ~cat:"pipeline" "phase.frontend" @@ fun () ->
  let prog = parse_and_lower src in
  try
    Fault.check knobs Diag.Optim None;
    optimize level prog;
    (prog, [])
  with e ->
    let d = Diag.of_exn Diag.Optim e in
    let ev =
      {
        Degrade.phase = Diag.Optim;
        func = None;
        action = "optimizer disabled; fresh unoptimized lowering";
        diag = d;
        kind = Degrade.Fault;
      }
    in
    Degrade.observe ev;
    (parse_and_lower src, [ ev ])

(* What the ladder did in one run of the phases. The analysis keeps one
   shared log; each forked branch after memory SSA writes a log of its
   own, which the join adopts only when it holds no event. *)
type log = {
  events : Degrade.event list ref;  (* in order *)
  distrusted : (Ir.Types.fname, Diag.t) Hashtbl.t;
  mutable degraded_all : bool;
  mutable phases : (string * int) list;  (* wall ns per phase, newest first *)
  mutable reports : Verify.Report.t list;  (* newest first *)
  shared : bool;
      (* the analysis's own log: events are observed, and phase samples
         recorded, as they happen; a branch's wait for its adoption *)
}

let new_log ~shared =
  {
    events = ref [];
    distrusted = Hashtbl.create 4;
    degraded_all = false;
    phases = [];
    reports = [];
    shared;
  }

(* Every distrust and every rung-4 step pushes an event, so a branch that
   logged nothing left the ladder where it found it. *)
let clean lg = !(lg.events) = []

(* [f]'s own thread CPU (ns) and minor-heap words. Table 1's time and
   memory sum these over the analysis's thunks, on whichever domain each
   one ran. *)
let metered f =
  let c0 = Obs.Clock.thread_cpu_ns () and w0 = Gc.minor_words () in
  let r = f () in
  (r, (Obs.Clock.thread_cpu_ns () - c0, Gc.minor_words () -. w0))

(* The phases after memory SSA in their sequential order, into which the
   branches' phase times and checker reports are merged back. *)
let after_memssa =
  [
    "vfg"; "vfg-tl"; "verify-vfg"; "verify-vfg-tl"; "resolve"; "verify-gamma";
    "resolve-tl"; "verify-gamma-tl"; "opt2";
  ]

let in_sequence phase_of main tl =
  let rank x =
    let rec go i = function
      | [] -> i
      | p :: rest -> if p = phase_of x then i else go (i + 1) rest
    in
    go 0 after_memssa
  in
  List.stable_sort (fun a b -> compare (rank a) (rank b)) (main @ tl)

(* A helper domain costs about 0.25 ms and 8–10 MB resident; programs with
   at least this many IR labels are large enough for that to be about a
   tenth of their own footprint (DESIGN.md §11 has the measurements). *)
let overlap_min_labels = 40_000

(* Overlap needs a large program and no budget: the deadline's poll
   counter is one sequential account. *)
let overlaps (knobs : Config.knobs) prog =
  Option.is_none (Budget.of_knobs knobs)
  && Ir.Prog.nlabels prog >= overlap_min_labels

let m_forks = Obs.Metrics.counter "pipeline.forks"

(* [analyze], plus [beside vfg_tl gamma_tl] run on the TL branch's domain
   once that branch has finished clean; [Some] of it only when the
   branches were adopted. *)
let analyze_with ~(knobs : Config.knobs)
    ~(beside : Vfg.Build.t -> Vfg.Resolve.gamma -> 'x) (prog : Ir.Prog.t) :
    analysis * 'x option =
  Obs.Trace.with_span ~cat:"pipeline" "pipeline.analyze" @@ fun () ->
  let t0 = Obs.Clock.thread_cpu_ns () in
  let words0 = Gc.minor_words () in
  let budget = Budget.of_knobs knobs in
  let log = new_log ~shared:true in
  (* Wall-clock per-phase timing (the thread CPU clock stays the CPU-time
     total Table 1 reports). Monotonic clock, clamped at >= 0: a
     wall-clock step must never flow negative phase times into
     BENCH_usher.json or budget checks. Wrapping outside the fault guard
     charges fallback work to the phase that degraded; each phase is also
     a trace span and a sample in the pipeline.phase_us histogram. *)
  let timed lg name f =
    let w0 = Obs.Clock.now_ns () in
    let r = Obs.Trace.with_span ~cat:"pipeline" ("phase." ^ name) f in
    let dt_ns = Obs.Clock.elapsed_ns w0 in
    if lg.shared then Obs.Metrics.observe m_phase_us (dt_ns / 1000);
    lg.phases <- (name, dt_ns) :: lg.phases;
    r
  in
  let push lg ev =
    if lg.shared then Degrade.observe ev;
    lg.events := !(lg.events) @ [ ev ]
  in
  let distrust lg phase fname exn =
    let d = Diag.of_exn phase exn in
    if not (Hashtbl.mem lg.distrusted fname) then begin
      Hashtbl.replace lg.distrusted fname d;
      push lg
        {
          Degrade.phase;
          func = Some fname;
          action = "function distrusted; full instrumentation";
          diag = d;
          kind = Degrade.Fault;
        }
    end
  in
  (* The sentinel's persistent distrust list (knobs.quarantine): functions
     implicated in unresolved soundness incidents are distrusted before any
     analysis runs, so a detected soundness bug costs precision, never
     correctness. Unknown names are ignored — the list is program-agnostic. *)
  List.iter
    (fun (fn, incident) ->
      match Ir.Prog.find_func prog fn with
      | None -> ()
      | Some _ ->
        if not (Hashtbl.mem log.distrusted fn) then begin
          let d =
            {
              Diag.severity = Diag.Warning;
              phase = Diag.Audit;
              loc = None;
              message = "quarantined by unresolved incident " ^ incident;
            }
          in
          Hashtbl.replace log.distrusted fn d;
          push log
            {
              Degrade.phase = Diag.Audit;
              func = Some fn;
              action = "function quarantined; full instrumentation";
              diag = d;
              kind = Degrade.Quarantined incident;
            }
        end)
    knobs.quarantine;
  let fail_all lg phase exn =
    lg.degraded_all <- true;
    push lg
      {
        Degrade.phase;
        func = None;
        action = "whole-program degradation to full instrumentation";
        diag = Diag.of_exn phase exn;
        kind = Degrade.Fault;
      }
  in
  (* Certificate checking (knobs.verify): each checker replays its phase's
     specification against the finished artifact. A rejected certificate
     walks the same ladder as a phase fault — the offending function is
     distrusted when the violation names one, rung 4 otherwise. A crash or
     budget blow inside a checker aborts only that checker and the result
     is accepted unverified: verification adds assurance, never behavior. *)
  let run_checker lg name ~on_bad (f : unit -> Verify.Report.t) : unit =
    if knobs.verify && not lg.degraded_all then
      timed lg ("verify-" ^ name) (fun () ->
          try
            Fault.check knobs Diag.Verify None;
            let r = f () in
            lg.reports <- r :: lg.reports;
            List.iter on_bad (Verify.Report.errors r)
          with e ->
            push lg
              {
                Degrade.phase = Diag.Verify;
                func = None;
                action = name ^ " checker aborted; result accepted unverified";
                diag = Diag.of_exn Diag.Verify e;
                kind = Degrade.Fault;
              })
  in
  (* Whole-program rejection: same rung 4 as a whole-program phase fault. *)
  let reject_all lg checker (v : Verify.Report.violation) =
    if not lg.degraded_all then begin
      lg.degraded_all <- true;
      push lg
        {
          Degrade.phase = Diag.Verify;
          func = None;
          action = checker ^ " certificate rejected; whole-program degradation";
          diag = v.Verify.Report.vdiag;
          kind = Degrade.Unverified checker;
        }
    end
  in
  (* Function-scoped rejection: same rung 3 as a per-function fault. *)
  let reject lg checker (v : Verify.Report.violation) =
    match v.Verify.Report.vfunc with
    | None -> reject_all lg checker v
    | Some fn ->
      if not (Hashtbl.mem lg.distrusted fn) then begin
        Hashtbl.replace lg.distrusted fn v.Verify.Report.vdiag;
        push lg
          {
            Degrade.phase = Diag.Verify;
            func = Some fn;
            action = "certificate rejected; function distrusted";
            diag = v.Verify.Report.vdiag;
            kind = Degrade.Unverified checker;
          }
      end
  in
  let not_trusted lg fn = Hashtbl.mem lg.distrusted fn in
  (* Trusted-from-nothing artifact chain, for rung 4: the stub pointer
     analysis knows no objects, so everything downstream of it is small
     and deterministic. Shared lazily so the record stays consistent; only
     the main domain forces it, before any fork. *)
  let stub_chain =
    lazy
      (let pa = Analysis.Andersen.stub prog in
       let cg = Analysis.Callgraph.build prog pa in
       let mr = Analysis.Modref.compute prog pa cg in
       let mssa = Memssa.build ~on_fault:(fun _ _ -> ()) prog pa cg mr in
       (pa, cg, mr, mssa))
  in
  let s_pa () = let x, _, _, _ = Lazy.force stub_chain in x in
  let s_cg () = let _, x, _, _ = Lazy.force stub_chain in x in
  let s_mr () = let _, _, x, _ = Lazy.force stub_chain in x in
  let s_mssa () = let _, _, _, x = Lazy.force stub_chain in x in
  (* Whole-program phase guard: a fault is rung 4. *)
  let guard lg phase ~fallback f =
    if lg.degraded_all then fallback ()
    else
      try
        Fault.check knobs phase None;
        (* the in-phase polls are amortized; the boundary check makes even
           a tiny program notice an already-blown deadline *)
        (match budget with
        | Some b -> Diag.Budget.check_deadline b phase
        | None -> ());
        f ()
      with e ->
        fail_all lg phase e;
        fallback ()
  in
  let pa =
    timed log "andersen" (fun () ->
        guard log Diag.Andersen ~fallback:s_pa (fun () ->
            Analysis.Andersen.run
              ~config:
                {
                  Analysis.Andersen.field_sensitive = knobs.field_sensitive;
                  heap_cloning = knobs.heap_cloning;
                  small_array_fields = knobs.small_array_fields;
                }
              ?budget prog))
  in
  (* Seeded corruption of the solved points-to sets happens before anything
     downstream consumes them, so the damage is exactly what Verify.Pta is
     specified to catch (downstream artifacts stay mutually consistent). *)
  if Fault.wants knobs Diag.Andersen Config.Pts_bitflip && not log.degraded_all
  then ignore (Fault.corrupt_pts pa);
  run_checker log "pta" ~on_bad:(reject_all log "pta") (fun () ->
      Verify.Pta.check ?budget prog pa);
  let cg =
    timed log "callgraph" (fun () ->
        guard log Diag.Callgraph ~fallback:s_cg (fun () ->
            Analysis.Callgraph.build prog pa))
  in
  let mr =
    timed log "modref" (fun () ->
        guard log Diag.Modref ~fallback:s_mr (fun () ->
            Analysis.Modref.compute prog pa cg))
  in
  let mssa =
    timed log "memssa" (fun () ->
        guard log Diag.Memssa ~fallback:s_mssa (fun () ->
            Memssa.build ?budget
              ~hook:(fun fn -> Fault.check knobs Diag.Memssa (Some fn))
              ~on_fault:(fun fn e -> distrust log Diag.Memssa fn e)
              prog pa cg mr))
  in
  (* If rung 4 triggered anywhere above, swap in the whole stub chain so
     the artifacts agree with each other (mixing a real mod/ref with a
     stub points-to would dangle object ids). *)
  let pa, cg, mr, mssa =
    if log.degraded_all then (s_pa (), s_cg (), s_mr (), s_mssa ())
    else (pa, cg, mr, mssa)
  in
  run_checker log "ssa" ~on_bad:(reject log "ssa") (fun () ->
      Verify.Ssa.check ?budget ~skip:(not_trusted log) prog pa cg mr mssa);
  (* From here on, every step takes the log it writes to: the shared one
     when run in sequence, a branch's own when forked. *)
  let build_vfg lg ~track_memory ~guarded () =
    let config = { Vfg.Build.track_memory; semi_strong = knobs.semi_strong } in
    if guarded then
      Vfg.Build.build ~config ?budget
        ~hook:(fun fn -> Fault.check knobs Diag.Vfg_build (Some fn))
        ~on_fault:(fun fn e -> distrust lg Diag.Vfg_build fn e)
        prog pa cg mr mssa
    else Vfg.Build.build ~config ~on_fault:(fun _ _ -> ()) prog pa cg mr mssa
  in
  let build lg name ~track_memory =
    timed lg name (fun () ->
        guard lg Diag.Vfg_build
          ~fallback:(build_vfg lg ~track_memory ~guarded:false)
          (build_vfg lg ~track_memory ~guarded:true))
  in
  (* Corrupt, then check, then force: the structural checkers run before
     [force_distrusted] (whose F-pins would otherwise read as extra
     edges), and a function whose VFG fragment fails its certificate is
     distrusted right there, so the force pass pins it to ⊥. *)
  let corrupt lg (vfg : Vfg.Build.t) =
    if Fault.wants knobs Diag.Vfg_build Config.Drop_vfg_edge
       && not lg.degraded_all
    then ignore (Fault.corrupt_vfg vfg.graph)
  in
  let check_structure lg name bld =
    run_checker lg name ~on_bad:(reject lg name) (fun () ->
        Verify.Vfg.check_structure ?budget ~skip:(not_trusted lg) ~name bld)
  in
  (* Rung 3: force every distrusted function's VFG fragment (and every
     flow crossing the trust boundary) to ⊥ before resolution, in both
     graphs. Forcing only adds edges to the F root, so Γ only gains ⊥. *)
  let force lg bld =
    if (not lg.degraded_all) && Hashtbl.length lg.distrusted > 0 then
      Vfg.Build.force_distrusted bld lg.distrusted
  in
  (* Rung 2: a resolution fault degrades Γ to all-undefined — guided
     instrumentation is monotone in the ⊥ set, so this only adds items. *)
  let resolve_guard lg what (bld : Vfg.Build.t) : Vfg.Resolve.gamma * bool =
    if lg.degraded_all then (Vfg.Resolve.all_bot bld.graph, false)
    else
      try
        Fault.check knobs Diag.Resolve None;
        ( Vfg.Resolve.resolve ~context_sensitive:knobs.context_sensitive
            ?budget bld.graph,
          true )
      with e ->
        push lg
          {
            Degrade.phase = Diag.Resolve;
            func = None;
            action = Printf.sprintf "Γ(%s) degraded to all-undefined" what;
            diag = Diag.of_exn Diag.Resolve e;
            kind = Degrade.Fault;
          };
        (Vfg.Resolve.all_bot bld.graph, false)
  in
  (* Γ certification: only a genuinely resolved Γ is checked (the all-⊥
     fallback certifies nothing and is trivially sound); a rejected Γ is
     degraded to all-⊥, which only adds instrumentation. *)
  let gamma_guard lg name (bld : Vfg.Build.t) (gm, resolved) =
    if not resolved then gm
    else begin
      if Fault.wants knobs Diag.Resolve Config.Gamma_flip then
        ignore (Fault.corrupt_gamma gm);
      let bad = ref false in
      run_checker lg name
        ~on_bad:(fun v ->
          if not !bad then begin
            bad := true;
            push lg
              {
                Degrade.phase = Diag.Verify;
                func = None;
                action =
                  Printf.sprintf "Γ certificate (%s) rejected; degraded to \
                                  all-undefined" name;
                diag = v.Verify.Report.vdiag;
                kind = Degrade.Unverified name;
              }
          end)
        (fun () ->
          Verify.Vfg.check_gamma ?budget
            ~context_sensitive:knobs.context_sensitive ~name bld gm);
      if !bad then Vfg.Resolve.all_bot bld.graph else gm
    end
  in
  let resolve lg ~phase ~what ~cert bld =
    gamma_guard lg cert bld (timed lg phase (fun () -> resolve_guard lg what bld))
  in
  let resolve_full lg vfg = resolve lg ~phase:"resolve" ~what:"TL+AT" ~cert:"gamma" vfg in
  let resolve_tl lg vfg_tl =
    resolve lg ~phase:"resolve-tl" ~what:"TL" ~cert:"gamma-tl" vfg_tl
  in
  (* Rung 1: without Opt II the redundant checks simply stay in. Opt II is
     also skipped whenever anything above degraded — its dominance argument
     assumes the unmodified Γ of a fully analyzed program. *)
  let opt2 lg vfg gamma =
    timed lg "opt2" @@ fun () ->
    let keep_checks reason diag =
      (match (reason, diag) with
      | Some action, Some d ->
        push lg
          { Degrade.phase = Diag.Opt2; func = None; action; diag = d;
            kind = Degrade.Fault }
      | _ -> ());
      { Vfg.Opt2.gamma; redirected = 0 }
    in
    if lg.degraded_all then keep_checks None None
    else if Hashtbl.length lg.distrusted > 0 then
      keep_checks (Some "Opt II skipped; redundant checks kept")
        (Some
           {
             Diag.severity = Diag.Info;
             phase = Diag.Opt2;
             loc = None;
             message = "distrusted functions present";
           })
    else
      try
        Fault.check knobs Diag.Opt2 None;
        Vfg.Opt2.run ~context_sensitive:knobs.context_sensitive ?budget vfg
      with e ->
        keep_checks (Some "Opt II skipped; redundant checks kept")
          (Some (Diag.of_exn Diag.Opt2 e))
  in
  (* Everything after memory SSA, in one domain, in the ladder's order. *)
  let sequential () =
    let vfg = build log "vfg" ~track_memory:true in
    let vfg_tl = build log "vfg-tl" ~track_memory:false in
    corrupt log vfg;
    check_structure log "vfg" vfg;
    check_structure log "vfg-tl" vfg_tl;
    force log vfg;
    force log vfg_tl;
    let gamma = resolve_full log vfg in
    let gamma_tl = resolve_tl log vfg_tl in
    (vfg, gamma, vfg_tl, gamma_tl, opt2 log vfg gamma)
  in
  (* The same steps split into the two halves that share nothing: the
     full graph through Opt II, and the top-level graph through Γ_TL. *)
  let full_branch lg () =
    let vfg = build lg "vfg" ~track_memory:true in
    corrupt lg vfg;
    check_structure lg "vfg" vfg;
    force lg vfg;
    let gamma = resolve_full lg vfg in
    (vfg, gamma, opt2 lg vfg gamma)
  in
  let tl_branch lg () =
    let vfg_tl = build lg "vfg-tl" ~track_memory:false in
    check_structure lg "vfg-tl" vfg_tl;
    force lg vfg_tl;
    (vfg_tl, resolve_tl lg vfg_tl)
  in
  (* Table 1's time and memory: this domain's work up to memory SSA, plus
     what each thunk below measures inside itself, wherever it ran. *)
  let cpu_ns = ref (Obs.Clock.thread_cpu_ns () - t0) in
  let words = ref (Gc.minor_words () -. words0) in
  let charge (c, w) =
    cpu_ns := !cpu_ns + c;
    words := !words +. w
  in
  let run_sequential () =
    let r, cost = metered sequential in
    charge cost;
    (r, None)
  in
  (* Fork when the branches can come back clean: with a function already
     distrusted, Opt II is skipped with an event, so the join would
     always rerun. Otherwise adopt both branches when neither logged
     anything, and throw both away and run [sequential] when either did,
     so every fault path is today's. *)
  let (vfg, gamma, vfg_tl, gamma_tl, opt2), extra =
    if
      not
        (overlaps knobs prog
        && (not log.degraded_all)
        && Hashtbl.length log.distrusted = 0)
    then run_sequential ()
    else begin
      let here = Domain.self () in
      let lm = new_log ~shared:false and lt = new_log ~shared:false in
      let (main, main_cost), (tl, tl_cost, forked, extra) =
        Fork.both
          (fun () -> metered (full_branch lm))
          (fun () ->
            let ((vfg_tl, gamma_tl) as tl), cost = metered (tl_branch lt) in
            ( tl, cost, Domain.self () <> here,
              if clean lt then Some (beside vfg_tl gamma_tl) else None ))
      in
      if forked then Obs.Metrics.incr m_forks;
      charge main_cost;
      charge tl_cost;
      if clean lm && clean lt then begin
        let phases = in_sequence fst (List.rev lm.phases) (List.rev lt.phases) in
        List.iter (fun (_, ns) -> Obs.Metrics.observe m_phase_us (ns / 1000)) phases;
        log.phases <- List.rev_append phases log.phases;
        log.reports <-
          List.rev_append
            (in_sequence
               (fun (r : Verify.Report.t) -> "verify-" ^ r.checker)
               (List.rev lm.reports) (List.rev lt.reports))
            log.reports;
        let vfg, gamma, opt2 = main and vfg_tl, gamma_tl = tl in
        ((vfg, gamma, vfg_tl, gamma_tl, opt2), extra)
      end
      else run_sequential ()
    end
  in
  ( {
      prog;
      pa;
      cg;
      mr;
      mssa;
      vfg;
      gamma;
      vfg_tl;
      gamma_tl;
      opt2;
      summary_stats = None;
      analysis_time_s = float_of_int !cpu_ns *. 1e-9;
      analysis_mem_mb = !words *. 8.0 /. 1048576.0;
      phase_times_s =
        List.rev_map (fun (name, ns) -> (name, float_of_int ns *. 1e-9)) log.phases;
      knobs;
      distrusted = log.distrusted;
      degraded_all = log.degraded_all;
      events = log.events;
      verify_reports = List.rev log.reports;
    },
    extra )

let analyze ?(knobs = Config.default_knobs) (prog : Ir.Prog.t) : analysis =
  fst (analyze_with ~knobs ~beside:(fun _ _ -> ()) prog)

let distrusted_functions (a : analysis) : string list =
  Hashtbl.fold (fun fn _ acc -> fn :: acc) a.distrusted []
  |> List.sort compare

let plan_span v f =
  Obs.Trace.with_span ~cat:"pipeline" ("plan." ^ Config.variant_name v) f

let full_plan prog v = plan_span v (fun () -> ((Instr.Full.build prog, None), None))

(* The guided plan of [v] over [gamma] and the planning context of its
   graph, built on first use. Degradation never removes instrumentation: a
   fault while building it makes the plan full instrumentation, and the
   fault comes back as an event for the caller to record. *)
let guided_plan ~(knobs : Config.knobs) ~prog ~distrust_set v ~opt1 ctx gamma =
  plan_span v @@ fun () ->
  try
    Fault.check knobs Diag.Instrument None;
    let r =
      Obs.Trace.with_span ~cat:"instr" "instr.guided" @@ fun () ->
      Instr.Guided.plan ~options:{ Instr.Guided.opt1 } ?distrusted:distrust_set
        (Lazy.force ctx) gamma
    in
    ((r.plan, Some r), None)
  with e ->
    ( (Instr.Full.build prog, None),
      Some
        {
          Degrade.phase = Diag.Instrument;
          func = None;
          action =
            Config.variant_name v ^ " plan degraded to full instrumentation";
          diag = Diag.of_exn Diag.Instrument e;
          kind = Degrade.Fault;
        } )

let context bld = lazy (Instr.Guided.context bld)

(* [plan_for] without recording: the planning fault, if any, is returned.
   [full] is the planning context of [a.vfg]; the three variants over the
   full graph share one. *)
let plan_of ~full (a : analysis) (v : Config.variant) =
  let distrust_set =
    if Hashtbl.length a.distrusted = 0 then None
    else begin
      let t = Hashtbl.create (Hashtbl.length a.distrusted) in
      Hashtbl.iter (fun fn _ -> Hashtbl.replace t fn ()) a.distrusted;
      Some t
    end
  in
  let guided = guided_plan ~knobs:a.knobs ~prog:a.prog ~distrust_set v in
  match v with
  | Config.Msan -> full_plan a.prog v
  | _ when a.degraded_all -> full_plan a.prog v
  | Config.Usher_tl -> guided ~opt1:false (context a.vfg_tl) a.gamma_tl
  | Config.Usher_tl_at -> guided ~opt1:false full a.gamma
  | Config.Usher_opt1 -> guided ~opt1:true full a.gamma
  | Config.Usher_full -> guided ~opt1:true full a.opt2.gamma

(** Instrumentation plan of one variant, plus the guided-traversal result
    when applicable. Under rung 4 (or any last-resort fault while building
    a guided plan) every variant's plan IS full instrumentation; such a
    fault is observed and appended to [a.events]. *)
let plan_for (a : analysis) (v : Config.variant) :
    Instr.Item.plan * Instr.Guided.result option =
  let r, ev = plan_of ~full:(context a.vfg) a v in
  Option.iter
    (fun ev ->
      Degrade.observe ev;
      a.events := !(a.events) @ [ ev ])
    ev;
  r

type prepared = {
  analysis : analysis;
  plans : (Config.variant * (Instr.Item.plan * Instr.Guided.result option)) list;
  plan_events : Degrade.event list;
  base : Runtime.Interp.base;
}

(* The helper domain of [analyze_with]'s fork runs the TL branch, then
   the Usher_TL and MSan plans and the program's base compile: none of
   them needs the full graph. Without a fork the caller does the same in
   order. Then it plans the three variants over the full graph from one
   planning context. *)
let prepare ?(knobs = Config.default_knobs) (prog : Ir.Prog.t) : prepared =
  let a, early =
    analyze_with ~knobs prog ~beside:(fun vfg_tl gamma_tl ->
        let tl =
          guided_plan ~knobs ~prog ~distrust_set:None Config.Usher_tl
            ~opt1:false (context vfg_tl) gamma_tl
        in
        let msan = full_plan prog Config.Msan in
        (msan, tl, Runtime.Interp.compile_base prog))
  in
  let plan = plan_of ~full:(context a.vfg) a in
  let msan, tl, base =
    match early with
    | Some early -> early
    | None ->
      let tl = plan Config.Usher_tl in
      let msan = plan Config.Msan in
      (msan, tl, Runtime.Interp.compile_base prog)
  in
  let tl_at = plan Config.Usher_tl_at in
  let opt1 = plan Config.Usher_opt1 in
  let usher = plan Config.Usher_full in
  let planned =
    List.combine Config.all_variants [ msan; tl; tl_at; opt1; usher ]
  in
  let plan_events = List.filter_map (fun (_, (_, ev)) -> ev) planned in
  List.iter Degrade.observe plan_events;
  {
    analysis = a;
    plans = List.map (fun (v, (r, _)) -> (v, r)) planned;
    plan_events;
    base;
  }
