(* Differential soundness oracle.

   For one TinyC program, run the experiment's own lanes
   ([Usher.Experiment.prepare], then one lane execution) and compare three
   sources of truth against each other:

   - the interpreter's ground-truth definedness ([Interp.outcome.gt_uses]:
     undefined values actually consumed at critical operations);
   - each variant's detections (E(l) checks that fired), under the
     experiment's own coverage rule ([Usher.Experiment.escaped]): a use is
     covered if its own check fired or a check at a dominating statement
     in the same function fired (§3.5.2);
   - the MSan baseline (full instrumentation) and the paper's Opt I/II
     expectations on the *static* plans.

   Divergences are classified:

   - [Miss]: a ground-truth undefined use a variant's plan does not cover
     — a soundness bug in guided instrumentation (or, if the variant is
     MSan itself, in the instrumentation runtime);
   - [Behavior]: the instrumented run trapped or changed the program's
     observable outputs — instrumentation must be a pure observer;
   - [Precision]: a static plan has more checks than the paper's
     monotonicity chain allows (guided > MSan, or Opt II > Opt I) — not a
     correctness bug, but a regression of the entire point of the system.

   The lane execution yields the native ground truth too. A run per plan
   replaces it when the lane execution raises, so a trap is pinned on the
   variant that hit it.

   The [hole] hook deliberately deletes every check a *guided* plan placed
   in functions matching a name prefix — a seeded soundness bug used by
   tests, CI and EXPERIMENTS.md to prove the sentinel catches real misses.
   The hole does not apply to full instrumentation or to distrusted
   (quarantined) functions, exactly like a plan-construction bug: once the
   sentinel quarantines the function, the full overlay takes over and the
   bug is masked. *)

type miss = {
  mvariant : Usher.Config.variant;
  mlabel : Ir.Types.label;
  mfunc : string option;  (* function owning the missed label *)
  baseline_covers : bool; (* does the MSan run cover this use? *)
}

type divergence =
  | Miss of miss
  | Behavior of { bvariant : Usher.Config.variant; expected : int list; got : int list }
  | Precision of {
      pvariant : Usher.Config.variant;
      checks : int;
      against : Usher.Config.variant;
      against_checks : int;
    }

type report = {
  prog : Ir.Prog.t;
  analysis : Usher.Pipeline.analysis;
  native : Runtime.Interp.outcome;
  per_variant : (Usher.Config.variant * Runtime.Interp.outcome) list;
  divergences : divergence list;
}

let soundness_misses (r : report) : miss list =
  List.filter_map (function Miss m -> Some m | _ -> None) r.divergences

let has_soundness_divergence (r : report) : bool =
  List.exists
    (function Miss _ | Behavior _ -> true | Precision _ -> false)
    r.divergences

(* Owner function of every label, as an array indexed by label. *)
let label_owners (prog : Ir.Prog.t) : string option array =
  let owners = Array.make (Ir.Prog.nlabels prog) None in
  Ir.Prog.iter_instrs
    (fun f _ i -> owners.(i.Ir.Types.lbl) <- Some f.Ir.Types.fname)
    prog;
  Ir.Prog.iter_terms
    (fun f _ t -> owners.(t.Ir.Types.tlbl) <- Some f.Ir.Types.fname)
    prog;
  owners

(* The seeded plan hole: delete every Check item a guided plan placed in a
   function whose name starts with [hole] — unless the function is
   distrusted, in which case its items came from the full overlay and a
   plan-construction bug would not affect them. *)
let apply_hole (a : Usher.Pipeline.analysis) (owners : string option array)
    (hole : string) (plan : Instr.Item.plan) : unit =
  let holed fn =
    String.starts_with ~prefix:hole fn && not (Hashtbl.mem a.distrusted fn)
  in
  Array.iteri
    (fun l items ->
      match owners.(l) with
      | Some fn when holed fn ->
        plan.Instr.Item.items.(l) <-
          List.filter
            (fun (it : Instr.Item.item) ->
              match it.act with Instr.Item.Check _ -> false | _ -> true)
            items
      | _ -> ())
    plan.Instr.Item.items

(* Each lane on its own execution: the native run first (its traps
   propagate: not a valid audit subject), then every plan, a trap
   becoming that plan's [Error]. *)
let run_per_plan ?limits (p : Usher.Experiment.prepared) =
  let module I = Runtime.Interp in
  let run plan = I.run ?limits (I.attach p.base plan) in
  let native = run (Instr.Item.empty_plan p.analysis.prog) in
  ( native,
    List.map
      (fun (l : Usher.Experiment.lane) ->
        try Ok (run l.lplan) with
        | I.Runtime_error msg -> Error msg
        | I.Resource_exhausted { what; limit } ->
          Error (Printf.sprintf "%s limit %d exhausted" what limit))
      p.lanes )

let judge ?limits (p : Usher.Experiment.prepared) : report =
  let module I = Runtime.Interp in
  let prog = p.analysis.prog in
  let owners = label_owners prog in
  let native, outcomes =
    match
      I.run_lanes ?limits
        (I.attach_lanes p.base
           (List.map (fun (l : Usher.Experiment.lane) -> l.lplan) p.lanes))
    with
    | r -> (r.native, List.map Result.ok (Array.to_list r.per_lane))
    | exception (I.Runtime_error _ | I.Resource_exhausted _) ->
      run_per_plan ?limits p
  in
  let runs =
    List.map2
      (fun (l : Usher.Experiment.lane) o ->
        (l.lvariant, (Instr.Item.stats_of l.lplan).Instr.Item.checks, o))
      p.lanes outcomes
  in
  let find v = List.find (fun (v', _, _) -> v' = v) runs in
  let msan_covers lbl =
    match find Usher.Config.Msan with
    | _, _, Ok o -> Usher.Experiment.covered prog o.I.detections lbl
    | _, _, Error _ -> false
  in
  let divergences = ref [] in
  let push d = divergences := d :: !divergences in
  (* Behavior + soundness comparison, per variant. *)
  List.iter
    (fun (v, _, outcome) ->
      match outcome with
      | Error _ ->
        (* The native run completed but the instrumented one trapped:
           instrumentation changed observable behavior. *)
        push (Behavior { bvariant = v; expected = native.I.outputs; got = [] })
      | Ok o ->
        if o.I.outputs <> native.I.outputs then
          push (Behavior { bvariant = v; expected = native.I.outputs; got = o.I.outputs });
        List.iter
          (fun lbl ->
            push
              (Miss
                 {
                   mvariant = v;
                   mlabel = lbl;
                   mfunc = owners.(lbl);
                   baseline_covers = msan_covers lbl;
                 }))
          (Usher.Experiment.escaped prog ~native o))
    runs;
  (* Static-plan precision: checks must respect the paper's monotonicity
     chain — every guided plan prunes relative to MSan, and Opt II only
     ever removes checks relative to Opt I. *)
  let expect_le v1 v2 =
    let (_, c1, _), (_, c2, _) = (find v1, find v2) in
    if c1 > c2 then
      push
        (Precision
           { pvariant = v1; checks = c1; against = v2; against_checks = c2 })
  in
  List.iter
    (fun v -> if v <> Usher.Config.Msan then expect_le v Usher.Config.Msan)
    Usher.Config.all_variants;
  expect_le Usher.Config.Usher_full Usher.Config.Usher_opt1;
  {
    prog;
    analysis = p.analysis;
    native;
    per_variant =
      List.filter_map
        (fun (v, _, o) -> match o with Ok o -> Some (v, o) | Error _ -> None)
        runs;
    divergences = List.rev !divergences;
  }

let check ?level ?knobs ?limits ?hole (src : string) : report =
  let p = Usher.Experiment.prepare ?level ?knobs src in
  Option.iter
    (fun h ->
      let owners = label_owners p.analysis.prog in
      List.iter
        (fun (l : Usher.Experiment.lane) ->
          if Option.is_some l.ltraversal then apply_hole p.analysis owners h l.lplan)
        p.lanes)
    hole;
  judge ?limits p
