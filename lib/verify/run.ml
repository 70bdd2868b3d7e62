(* Verify.Run — run every certificate checker over a finished analysis.

   `usherc check` funnels through [check_all] (the pipeline's inline
   [--verify] calls the checkers one by one, between its phases); each
   VFG/Γ pair is described by a [graph_instance] so the top-level-only
   prepass graph and the full memory-tracking graph are both audited under
   distinct checker names ("vfg-tl" / "gamma-tl" vs "vfg" / "gamma"). *)

type graph_instance = {
  gi_suffix : string;  (** "" for the main graph, "-tl" for the prepass *)
  gi_build : Deps.Vfg.Build.t;
  gi_gamma : Deps.Vfg.Resolve.gamma option;
      (** [None] when Γ was degraded to all-⊥ (nothing to certify) *)
  gi_allow_f_pins : bool;
      (** graph was post-processed by [force_distrusted]: excuse extra
          edges into the F root *)
}

let check_all ?budget ?(skip = fun (_ : Ir.Types.fname) -> false)
    ?(context_sensitive = true) (p : Ir.Prog.t) (pa : Analysis.Andersen.t)
    (cg : Analysis.Callgraph.t) (mr : Analysis.Modref.t) (mssa : Memssa.t)
    (graphs : graph_instance list) : Report.t list =
  let pta = Pta.check ?budget p pa in
  let ssa = Ssa.check ?budget ~skip p pa cg mr mssa in
  let per_graph gi =
    let s =
      Vfg.check_structure ?budget ~skip ~name:("vfg" ^ gi.gi_suffix)
        ~allow_f_pins:gi.gi_allow_f_pins gi.gi_build
    in
    match gi.gi_gamma with
    | Some gm ->
      [
        s;
        Vfg.check_gamma ?budget ~context_sensitive
          ~name:("gamma" ^ gi.gi_suffix) gi.gi_build gm;
      ]
    | None -> [ s ]
  in
  (pta :: ssa :: List.concat_map per_graph graphs : Report.t list)

let all_ok reports = List.for_all Report.ok reports
let total_violations reports =
  List.fold_left (fun acc r -> acc + Report.nviolations r) 0 reports
