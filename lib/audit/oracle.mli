(** Differential soundness oracle: run the experiment's own lanes
    ({!Usher.Experiment.prepare}, then one lane execution) on one program
    and cross-check the interpreter's ground-truth undefined uses against
    each variant's detections (with the experiment's coverage rule,
    {!Usher.Experiment.escaped}), the MSan baseline, and the Opt I/II
    static expectations. *)

type miss = {
  mvariant : Usher.Config.variant;
  mlabel : Ir.Types.label;
  mfunc : string option;   (** function owning the missed label *)
  baseline_covers : bool;  (** does the MSan run cover this use? *)
}

type divergence =
  | Miss of miss
      (** soundness miss: a ground-truth use the variant does not cover *)
  | Behavior of {
      bvariant : Usher.Config.variant;
      expected : int list;
      got : int list;
    }
      (** the instrumented run trapped ([got = []]) or changed the
          program's observable outputs *)
  | Precision of {
      pvariant : Usher.Config.variant;
      checks : int;
      against : Usher.Config.variant;
      against_checks : int;
    }  (** static check count violates the paper's monotonicity chain *)

type report = {
  prog : Ir.Prog.t;
  analysis : Usher.Pipeline.analysis;
  native : Runtime.Interp.outcome;
  per_variant : (Usher.Config.variant * Runtime.Interp.outcome) list;
  divergences : divergence list;
}

val soundness_misses : report -> miss list

(** Any [Miss] or [Behavior] divergence (the kinds that gate CI). *)
val has_soundness_divergence : report -> bool

(** Judge prepared lanes. They run as one lane execution, which also
    yields the native ground truth. A run per plan replaces it when the
    lane execution raises (a trap only one plan hits is that variant's
    [Behavior]).

    @raise Runtime.Interp.Runtime_error
    @raise Runtime.Interp.Resource_exhausted when the native run traps. *)
val judge :
  ?limits:Runtime.Interp.limits ->
  Usher.Experiment.prepared ->
  report

(** {!Usher.Experiment.prepare}, then {!judge}.

    [hole] is the seeded-bug test hook: every Check item a {e guided} plan
    placed in functions whose name starts with the prefix is deleted
    before running — except in distrusted (quarantined) functions, whose
    items come from the full overlay, so quarantining heals the hole.

    @raise Diag.Error on uncompilable source.
    @raise Runtime.Interp.Runtime_error
    @raise Runtime.Interp.Resource_exhausted when the native run traps. *)
val check :
  ?level:Optim.Pipeline.level ->
  ?knobs:Usher.Config.knobs ->
  ?limits:Runtime.Interp.limits ->
  ?hole:string ->
  string ->
  report
