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
      (** CPU seconds spent by the analyzing domain alone
          ({!Obs.Clock.thread_cpu_ns}), pointer analysis through Opt II;
          other domains' work in the meantime is not counted *)
  analysis_mem_mb : float;
      (** MB allocated by the analyzing domain over the same span: its
          [Gc.minor_words] delta, 8 bytes a word. Other domains'
          allocation is not counted, and allocation freed in the
          meantime still counts. *)
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
    budget exhaustion or injected faults — it degrades instead. *)
val analyze : ?knobs:Config.knobs -> Ir.Prog.t -> analysis

(** Distrusted functions, sorted. *)
val distrusted_functions : analysis -> string list

(** Instrumentation plan of one variant, plus the guided-traversal result
    when applicable (None for MSan and for degraded-to-full plans). *)
val plan_for :
  analysis -> Config.variant -> Instr.Item.plan * Instr.Guided.result option
