(* The end-to-end Usher pipeline (Fig. 3):

     source --Clang analog--> IR --O0+IM/O1/O2--> SSA IR
       --pointer analysis--> --memory SSA--> --VFG--> --Γ--> plans

   [analyze] produces every artifact shared by the variants; [plan_for]
   derives the instrumentation plan of one variant. Analysis wall time and
   peak heap are recorded for Table 1.

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
  summary_stats : Summary.Engine.stats option;
      (* compositional-resolution counters; [Some] iff [knobs.summaries],
         shared by the TL+AT and TL resolutions *)
  analysis_time_s : float;            (* pointer analysis through Opt II *)
  analysis_mem_mb : float;
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

let analyze ?(knobs = Config.default_knobs) (prog : Ir.Prog.t) : analysis =
  Obs.Trace.with_span ~cat:"pipeline" "pipeline.analyze" @@ fun () ->
  let t0 = Sys.time () in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let budget = Budget.of_knobs knobs in
  let events : Degrade.event list ref = ref [] in
  let distrusted : (Ir.Types.fname, Diag.t) Hashtbl.t = Hashtbl.create 4 in
  let degraded_all = ref false in
  (* Wall-clock per-phase timing (Sys.time above stays the CPU-time total
     Table 1 reports). Monotonic clock, clamped at >= 0: a wall-clock step
     must never flow negative phase times into BENCH_usher.json or budget
     checks. Wrapping outside the fault guard charges fallback work to the
     phase that degraded; each phase is also a trace span and a sample in
     the pipeline.phase_us histogram. *)
  let phase_times : (string * float) list ref = ref [] in
  let timed name f =
    let w0 = Obs.Clock.now_ns () in
    let r = Obs.Trace.with_span ~cat:"pipeline" ("phase." ^ name) f in
    let dt_ns = Obs.Clock.elapsed_ns w0 in
    Obs.Metrics.observe m_phase_us (dt_ns / 1000);
    phase_times := (name, float_of_int dt_ns *. 1e-9) :: !phase_times;
    r
  in
  let push ev =
    Degrade.observe ev;
    events := !events @ [ ev ]
  in
  let distrust phase fname exn =
    let d = Diag.of_exn phase exn in
    if not (Hashtbl.mem distrusted fname) then begin
      Hashtbl.replace distrusted fname d;
      push
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
        if not (Hashtbl.mem distrusted fn) then begin
          let d =
            {
              Diag.severity = Diag.Warning;
              phase = Diag.Audit;
              loc = None;
              message = "quarantined by unresolved incident " ^ incident;
            }
          in
          Hashtbl.replace distrusted fn d;
          push
            {
              Degrade.phase = Diag.Audit;
              func = Some fn;
              action = "function quarantined; full instrumentation";
              diag = d;
              kind = Degrade.Quarantined incident;
            }
        end)
    knobs.quarantine;
  let fail_all phase exn =
    degraded_all := true;
    push
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
  let verify_reports : Verify.Report.t list ref = ref [] in
  let run_checker name ~on_bad (f : unit -> Verify.Report.t) : unit =
    if knobs.verify && not !degraded_all then
      timed ("verify-" ^ name) (fun () ->
          try
            Fault.check knobs Diag.Verify None;
            let r = f () in
            verify_reports := !verify_reports @ [ r ];
            List.iter on_bad (Verify.Report.errors r)
          with e ->
            push
              {
                Degrade.phase = Diag.Verify;
                func = None;
                action = name ^ " checker aborted; result accepted unverified";
                diag = Diag.of_exn Diag.Verify e;
                kind = Degrade.Fault;
              })
  in
  (* Whole-program rejection: same rung 4 as a whole-program phase fault. *)
  let reject_all checker (v : Verify.Report.violation) =
    if not !degraded_all then begin
      degraded_all := true;
      push
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
  let reject checker (v : Verify.Report.violation) =
    match v.Verify.Report.vfunc with
    | None -> reject_all checker v
    | Some fn ->
      if not (Hashtbl.mem distrusted fn) then begin
        Hashtbl.replace distrusted fn v.Verify.Report.vdiag;
        push
          {
            Degrade.phase = Diag.Verify;
            func = Some fn;
            action = "certificate rejected; function distrusted";
            diag = v.Verify.Report.vdiag;
            kind = Degrade.Unverified checker;
          }
      end
  in
  let not_trusted fn = Hashtbl.mem distrusted fn in
  (* Trusted-from-nothing artifact chain, for rung 4: the stub pointer
     analysis knows no objects, so everything downstream of it is small
     and deterministic. Shared lazily so the record stays consistent. *)
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
  let guard phase ~fallback f =
    if !degraded_all then fallback ()
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
        fail_all phase e;
        fallback ()
  in
  let pa =
    timed "andersen" (fun () ->
        guard Diag.Andersen ~fallback:s_pa (fun () ->
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
  if Fault.wants knobs Diag.Andersen Config.Pts_bitflip && not !degraded_all
  then ignore (Fault.corrupt_pts pa);
  run_checker "pta" ~on_bad:(reject_all "pta") (fun () ->
      Verify.Pta.check ?budget prog pa);
  let cg =
    timed "callgraph" (fun () ->
        guard Diag.Callgraph ~fallback:s_cg (fun () ->
            Analysis.Callgraph.build prog pa))
  in
  let mr =
    timed "modref" (fun () ->
        guard Diag.Modref ~fallback:s_mr (fun () ->
            Analysis.Modref.compute prog pa cg))
  in
  let mssa =
    timed "memssa" (fun () ->
        guard Diag.Memssa ~fallback:s_mssa (fun () ->
            Memssa.build ?budget
              ~hook:(fun fn -> Fault.check knobs Diag.Memssa (Some fn))
              ~on_fault:(fun fn e -> distrust Diag.Memssa fn e)
              prog pa cg mr))
  in
  (* If rung 4 triggered anywhere above, swap in the whole stub chain so
     the artifacts agree with each other (mixing a real mod/ref with a
     stub points-to would dangle object ids). *)
  let pa, cg, mr, mssa =
    if !degraded_all then (s_pa (), s_cg (), s_mr (), s_mssa ())
    else (pa, cg, mr, mssa)
  in
  run_checker "ssa" ~on_bad:(reject "ssa") (fun () ->
      Verify.Ssa.check ?budget ~skip:not_trusted prog pa cg mr mssa);
  let build_vfg ~track_memory ~guarded () =
    let config = { Vfg.Build.track_memory; semi_strong = knobs.semi_strong } in
    if guarded then
      Vfg.Build.build ~config ?budget
        ~hook:(fun fn -> Fault.check knobs Diag.Vfg_build (Some fn))
        ~on_fault:(fun fn e -> distrust Diag.Vfg_build fn e)
        prog pa cg mr mssa
    else Vfg.Build.build ~config ~on_fault:(fun _ _ -> ()) prog pa cg mr mssa
  in
  let vfg =
    timed "vfg" (fun () ->
        guard Diag.Vfg_build
          ~fallback:(fun () -> build_vfg ~track_memory:true ~guarded:false ())
          (fun () -> build_vfg ~track_memory:true ~guarded:true ()))
  in
  let vfg_tl =
    timed "vfg-tl" (fun () ->
        guard Diag.Vfg_build
          ~fallback:(fun () -> build_vfg ~track_memory:false ~guarded:false ())
          (fun () -> build_vfg ~track_memory:false ~guarded:true ()))
  in
  (* Corrupt, then check, then force: the structural checkers run before
     [force_distrusted] (whose F-pins would otherwise read as extra
     edges), and a function whose VFG fragment fails its certificate is
     distrusted right here, so the force pass below pins it to ⊥. *)
  if Fault.wants knobs Diag.Vfg_build Config.Drop_vfg_edge && not !degraded_all
  then ignore (Fault.corrupt_vfg vfg.Vfg.Build.graph);
  run_checker "vfg" ~on_bad:(reject "vfg") (fun () ->
      Verify.Vfg.check_structure ?budget ~skip:not_trusted ~name:"vfg" vfg);
  run_checker "vfg-tl" ~on_bad:(reject "vfg-tl") (fun () ->
      Verify.Vfg.check_structure ?budget ~skip:not_trusted ~name:"vfg-tl"
        vfg_tl);
  (* Rung 3: force every distrusted function's VFG fragment (and every
     flow crossing the trust boundary) to ⊥ before resolution, in both
     graphs. Forcing only adds edges to the F root, so Γ only gains ⊥. *)
  if (not !degraded_all) && Hashtbl.length distrusted > 0 then begin
    Vfg.Build.force_distrusted vfg distrusted;
    Vfg.Build.force_distrusted vfg_tl distrusted
  end;
  (* Rung 2: a resolution fault degrades Γ to all-undefined — guided
     instrumentation is monotone in the ⊥ set, so this only adds items.
     With [knobs.summaries] the compositional engine (lib/summary)
     replaces the monolithic search; its own softer failures — a faulting
     SCC, a corrupt cache entry — degrade inside the engine (fall back to
     direct, exact resolution of the affected summaries) and surface here
     as Info-severity events: Γ stays exact, so they must not read as a
     rung-2 degradation downstream. *)
  let sum_stats =
    if knobs.summaries then Some (Summary.Engine.fresh_stats ()) else None
  in
  (* One prep serves both resolutions: the canonical naming and IR
     serializations behind the content keys are graph-independent. *)
  let sum_prep = lazy (Summary.Engine.prep ~prog) in
  let resolve_guard what (bld : Vfg.Build.t) : Vfg.Resolve.gamma * bool =
    if !degraded_all then (Vfg.Resolve.all_bot bld.graph, false)
    else
      try
        Fault.check knobs Diag.Resolve None;
        let gm =
          match sum_stats with
          | Some stats ->
            Summary.Engine.resolve
              ~context_sensitive:knobs.context_sensitive ?budget
              ?cache:knobs.summary_cache ~prep:(Lazy.force sum_prep)
              ~hook:(fun fn -> Fault.check knobs Diag.Resolve (Some fn))
              ~on_fallback:(fun fns d ->
                push
                  {
                    Degrade.phase = Diag.Resolve;
                    func = (match fns with [ f ] -> Some f | _ -> None);
                    action =
                      Printf.sprintf
                        "summary SCC {%s} fell back to direct resolution"
                        (String.concat "," fns);
                    diag = { d with Diag.severity = Diag.Info };
                    kind = Degrade.Fault;
                  })
              ~on_corrupt:(fun path ->
                push
                  {
                    Degrade.phase = Diag.Resolve;
                    func = None;
                    action = "corrupt summary cache entry removed; recomputed";
                    diag =
                      {
                        Diag.severity = Diag.Info;
                        phase = Diag.Resolve;
                        loc = None;
                        message = "checksum mismatch: " ^ path;
                      };
                    kind = Degrade.Fault;
                  })
              ~stats ~prog:bld.prog ~objects:bld.pa.Analysis.Andersen.objects
              ~cg:bld.cg bld.graph
          | None ->
            Vfg.Resolve.resolve ~context_sensitive:knobs.context_sensitive
              ?budget bld.graph
        in
        (gm, true)
      with e ->
        push
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
  let gamma_guard name (bld : Vfg.Build.t) (gm, resolved) =
    if not resolved then gm
    else begin
      if Fault.wants knobs Diag.Resolve Config.Gamma_flip then
        ignore (Fault.corrupt_gamma gm);
      let bad = ref false in
      run_checker name
        ~on_bad:(fun v ->
          if not !bad then begin
            bad := true;
            push
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
  let gamma =
    gamma_guard "gamma" vfg (timed "resolve" (fun () -> resolve_guard "TL+AT" vfg))
  in
  let gamma_tl =
    gamma_guard "gamma-tl" vfg_tl
      (timed "resolve-tl" (fun () -> resolve_guard "TL" vfg_tl))
  in
  (* Rung 1: without Opt II the redundant checks simply stay in. Opt II is
     also skipped whenever anything above degraded — its dominance argument
     assumes the unmodified Γ of a fully analyzed program. *)
  let opt2 =
    timed "opt2" @@ fun () ->
    let keep_checks reason diag =
      (match (reason, diag) with
      | Some action, Some d ->
        push
          { Degrade.phase = Diag.Opt2; func = None; action; diag = d;
            kind = Degrade.Fault }
      | _ -> ());
      { Vfg.Opt2.gamma; redirected = 0 }
    in
    if !degraded_all then keep_checks None None
    else if Hashtbl.length distrusted > 0 then
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
  let dt = Sys.time () -. t0 in
  let heap1 = (Gc.quick_stat ()).Gc.heap_words in
  let words = max 0 (heap1 - heap0) in
  {
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
    summary_stats = sum_stats;
    analysis_time_s = dt;
    analysis_mem_mb = float_of_int (words * 8) /. 1048576.0;
    phase_times_s = List.rev !phase_times;
    knobs;
    distrusted;
    degraded_all = !degraded_all;
    events;
    verify_reports = !verify_reports;
  }

let distrusted_functions (a : analysis) : string list =
  Hashtbl.fold (fun fn _ acc -> fn :: acc) a.distrusted []
  |> List.sort compare

(** Instrumentation plan of one variant, plus the guided-traversal result
    when applicable. Degradation never removes instrumentation: under rung
    4 (or any last-resort fault while building a guided plan) every
    variant's plan IS full instrumentation. *)
let plan_for (a : analysis) (v : Config.variant) :
    Instr.Item.plan * Instr.Guided.result option =
  Obs.Trace.with_span ~cat:"pipeline" ("plan." ^ Config.variant_name v)
  @@ fun () ->
  let full () = (Instr.Full.build a.prog, None) in
  let distrust_set =
    if Hashtbl.length a.distrusted = 0 then None
    else begin
      let t = Hashtbl.create (Hashtbl.length a.distrusted) in
      Hashtbl.iter (fun fn _ -> Hashtbl.replace t fn ()) a.distrusted;
      Some t
    end
  in
  let guided ~opt1 bld gamma =
    try
      Fault.check a.knobs Diag.Instrument None;
      let r =
        Instr.Guided.build ~options:{ Instr.Guided.opt1 } ?distrusted:distrust_set
          bld gamma
      in
      (r.plan, Some r)
    with e ->
      let ev =
        {
          Degrade.phase = Diag.Instrument;
          func = None;
          action =
            Config.variant_name v ^ " plan degraded to full instrumentation";
          diag = Diag.of_exn Diag.Instrument e;
          kind = Degrade.Fault;
        }
      in
      Degrade.observe ev;
      a.events := !(a.events) @ [ ev ];
      full ()
  in
  match v with
  | Config.Msan -> full ()
  | _ when a.degraded_all -> full ()
  | Config.Usher_tl -> guided ~opt1:false a.vfg_tl a.gamma_tl
  | Config.Usher_tl_at -> guided ~opt1:false a.vfg a.gamma
  | Config.Usher_opt1 -> guided ~opt1:true a.vfg a.gamma
  | Config.Usher_full -> guided ~opt1:true a.vfg a.opt2.gamma
