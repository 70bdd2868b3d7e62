(* What one program's [Experiment.t] contributes to the benchmark: the
   equivalence-gate digest and the two deterministic Fig. 10/11 numbers. *)

type t = {
  digest : string;  (** hex digest of every time-independent result *)
  usher_slowdown_pct : float;  (** Fig. 10 slowdown of the Usher variant *)
  usher_checks_pct : float;  (** Usher checks as a share of MSan's (Fig. 11) *)
}

(* A degradation of severity Warning or higher counts the program as
   failed: its plans are no longer the analysis being measured. *)
let degradation (e : Usher.Experiment.t) : string option =
  List.find_map
    (fun (ev : Usher.Degrade.event) ->
      if ev.diag.severity <> Diag.Info then Some (Usher.Degrade.to_string ev)
      else None)
    !(e.analysis.events)

(* The gate compares the Table 1 row with its two measured fields zeroed,
   each variant's static stats, slowdown, shadow ops, compression count and
   detections, the native outputs and the ground-truth uses. No_sharing
   makes the bytes depend on structure only, not on how values were
   shared in the heap that built them. *)
let of_experiment (e : Usher.Experiment.t) : t =
  let table1 =
    { e.table1 with analysis_time_s = 0.0; analysis_mem_mb = 0.0 }
  in
  let variants =
    List.map
      (fun (r : Usher.Experiment.variant_result) ->
        ( Usher.Config.variant_name r.variant,
          r.static_stats,
          r.slowdown_pct,
          r.dynamic_shadow_ops,
          r.compressed_away,
          List.sort compare r.detections ))
      e.results
  in
  let key =
    (table1, variants, e.native_outputs, List.sort compare e.gt_uses)
  in
  let usher = Usher.Experiment.result_for e Usher.Config.Usher_full in
  let msan = Usher.Experiment.result_for e Usher.Config.Msan in
  {
    digest =
      Digest.to_hex (Digest.string (Marshal.to_string key [ Marshal.No_sharing ]));
    usher_slowdown_pct = usher.slowdown_pct;
    usher_checks_pct =
      (if msan.static_stats.checks = 0 then 100.0
       else
         100.0
         *. float_of_int usher.static_stats.checks
         /. float_of_int msan.static_stats.checks);
  }
