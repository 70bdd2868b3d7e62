(** The per-benchmark statistics of the paper's Table 1. *)

type t = {
  kloc : float;                  (** TinyC source size *)
  analysis_time_s : float;
  analysis_mem_mb : float;
  var_tl : int;                  (** top-level variables (virtual registers) *)
  var_at_stack : int;            (** address-taken objects by region *)
  var_at_heap : int;
  var_at_global : int;
  pct_uninit_alloc : float;      (** %F *)
  semi_per_heap_site : float;    (** S: semi-strong cuts per non-array heap site *)
  pct_strong : float;            (** %SU *)
  pct_weak_singleton : float;    (** %WU *)
  vfg_nodes : int;
  pct_reaching : float;
      (** %B: nodes the Usher_TL+AT plan's traversal reached; 100 when
          that plan fell back to full instrumentation *)
  opt1_simplified : int;
      (** S: closures the Usher_OptI plan's traversal simplified; 0 when
          that plan fell back to full instrumentation *)
  opt2_redirected : int;         (** R: nodes redirected by Opt II *)
  pa_solve_iterations : int;     (** Andersen worklist pops *)
  pa_sccs_collapsed : int;       (** pointer-equivalence cycles unified *)
  pa_edges_deduped : int;        (** duplicate copy edges skipped *)
  resolve_states : int;          (** (node, context) states explored *)
  resolve_condensed_sccs : int;  (** nontrivial VFG SCCs the search collapsed *)
  condensation_ratio : float;    (** VFG components / nodes; 1.0 = no cycles *)
  degraded_functions : string list;   (** distrusted: MSan instrumentation *)
  degradation_events : string list;
      (** the ladder's audit trail up to planning: events the plans
          themselves raise are not listed *)
  verify_checkers : (string * float * int) list;
      (** (checker, wall seconds, violations) per certificate checker, in
          pipeline order, when the analysis ran with [verify]; [[]]
          otherwise *)
}

val kloc_of_source : string -> float

(** [traversals] are the guided traversals of the Usher_TL+AT and
    Usher_OptI plans, as {!Pipeline.plan_for} returned them. Without them,
    [compute] plans those two variants itself, the same way, and keeps
    whatever degradation events that planning raises out of the
    analysis's event list (the metrics and the trace still observe them).
    A caller that also plans one of those variants should pass its
    traversal, so no planning fault is observed twice. Traced as a
    [usher.stats] span. *)
val compute :
  ?traversals:Instr.Guided.result option * Instr.Guided.result option ->
  src:string ->
  Pipeline.analysis ->
  t
