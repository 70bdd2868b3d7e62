(** The end-to-end Usher pipeline (the paper's Fig. 3):

    source → IR → O-level optimization → pointer analysis → memory SSA →
    VFG → definedness resolution → instrumentation plans.

    Every phase runs under an optional resource budget ({!Config.knobs})
    and a fault guard; failures walk a sound degradation ladder instead of
    escaping: Opt II is dropped, Γ falls to all-undefined, single functions
    are distrusted (full instrumentation + ⊥-forced VFG fragment), or the
    whole program degrades to MSan. Degradation only ever adds
    instrumentation, so no undefined use is lost. *)

type analysis = {
  prog : Ir.Prog.t;
  pa : Analysis.Andersen.t;
  cg : Analysis.Callgraph.t;
  mr : Analysis.Modref.t;
  mssa : Memssa.t;
  vfg : Vfg.Build.t;                  (** full graph (TL+AT) *)
  gamma : Vfg.Resolve.gamma;          (** resolved on [vfg] *)
  vfg_tl : Vfg.Build.t;               (** top-level-only graph *)
  gamma_tl : Vfg.Resolve.gamma;
  opt2 : Vfg.Opt2.result;             (** Γ after redundant check elimination *)
  summary_stats : unit option;
      (** always [None]. Vestigial: it exists only because the benchmark
          (perf/layers.ml) builds this record as a literal naming it, and
          it goes with the next change to the benchmark. *)
  analysis_time_s : float;
      (** CPU seconds of the analysis, pointer analysis through Opt II:
          the sum of the thread CPU ({!Obs.Clock.thread_cpu_ns}) each of
          its thunks measured inside itself, on whichever domain it ran.
          Other work in the meantime is not counted. *)
  analysis_mem_mb : float;
      (** MB allocated by the same thunks: the sum of their
          [Gc.minor_words] deltas, 8 bytes a word. Other work's
          allocation is not counted, and allocation freed in the meantime
          still counts. *)
  phase_times_s : (string * float) list;
      (** wall-clock seconds per analysis phase, in pipeline order:
          andersen, callgraph, modref, memssa, vfg, vfg-tl, resolve,
          resolve-tl, opt2 *)
  knobs : Config.knobs;
  distrusted : (Ir.Types.fname, Diag.t) Hashtbl.t;
      (** functions whose static results are no longer trusted *)
  degraded_all : bool;  (** rung 4: every variant falls back to MSan *)
  events : Degrade.event list ref;  (** the ladder's audit trail, in order *)
  verify_reports : Verify.Report.t list;
      (** certificate-checker reports, in pipeline order: pta, ssa, vfg,
          vfg-tl, gamma, gamma-tl (empty unless [knobs.verify]; aborted
          or skipped checkers are simply absent) *)
}

(** Parse, lower and optimize a TinyC source (default level O0+IM). Traced
    as a [phase.frontend] span with one child span per pass:
    [frontend.parse], [frontend.lower] and [frontend.optimize]. *)
val front : ?level:Optim.Pipeline.level -> string -> Ir.Prog.t

(** Like {!front}, but an optimizer fault degrades to a fresh unoptimized
    lowering instead of crashing (frontend diagnostics still propagate:
    there is no sound fallback for uncompilable source). *)
val front_guarded :
  ?level:Optim.Pipeline.level ->
  ?knobs:Config.knobs ->
  string ->
  Ir.Prog.t * Degrade.event list

(** Every analysis artifact shared by the variants. Never raises for
    budget exhaustion or injected faults — it degrades instead.

    After memory SSA the work splits in two halves that share nothing:
    the full graph ([vfg], its check, [resolve], Γ certification, Opt II)
    and the top-level graph ([vfg-tl], its check, [resolve-tl], Γ_TL
    certification). On a large program (at least 40,000 IR labels) with
    no budget knob set, the halves are handed to {!Fork.both}, which runs
    the TL half on a helper domain when a core is free. Each half then
    logs its events and distrusts into a log of its own; when neither
    logged anything both are adopted, otherwise both are thrown away and
    the phases rerun in sequence on the calling domain. The result is the
    sequential result in every case. *)
val analyze : ?knobs:Config.knobs -> Ir.Prog.t -> analysis

(** Distrusted functions, sorted. *)
val distrusted_functions : analysis -> string list

(** The certificate checkers that aborted (crashed or blew the budget),
    leaving their phase's result unverified, in pipeline order. *)
val aborted_checkers : analysis -> string list

(** Instrumentation plan of one variant, plus the guided-traversal result
    when applicable (None for MSan and for degraded-to-full plans).
    A planning fault degrades the plan to full instrumentation and is
    observed and appended to the analysis's [events]. *)
val plan_for :
  analysis -> Config.variant -> Instr.Item.plan * Instr.Guided.result option

(** What {!Experiment.prepare} builds on. *)
type prepared = {
  analysis : analysis;  (** its [events] hold the analysis's events only *)
  plans : (Config.variant * (Instr.Item.plan * Instr.Guided.result option)) list;
      (** every variant, in {!Config.all_variants} order *)
  plan_events : Degrade.event list;
      (** planning faults, in {!Config.all_variants} order; already
          observed, not yet in [analysis.events] *)
  base : Runtime.Interp.base;  (** [Runtime.Interp.compile_base] of the program *)
}

(** {!analyze}, {!plan_for} of every variant and the program's base
    compile. On a large program the helper domain that runs the TL half
    of {!analyze} goes on to plan Usher_TL and MSan and to compile the
    base. The caller plans Usher_TL+AT, Usher_OptI and Usher from one
    {!Instr.Guided.context} of the full graph. The result is the
    sequential one, and each plan equals its {!plan_for}. *)
val prepare : ?knobs:Config.knobs -> Ir.Prog.t -> prepared
