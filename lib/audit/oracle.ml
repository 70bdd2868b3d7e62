(* Differential soundness oracle.

   For one TinyC program, run every instrumentation variant and compare
   three sources of truth against each other:

   - the interpreter's ground-truth definedness ([Interp.outcome.gt_uses]:
     undefined values actually consumed at critical operations);
   - each variant's detections (E(l) checks that fired), with the paper's
     dominance rule: a use is covered if its own check fired or a check at
     a dominating statement in the same function fired (§3.5.2);
   - the MSan baseline (full instrumentation) and the paper's Opt I/II
     expectations on the *static* plans.

   Divergences are classified:

   - [Miss]: a ground-truth undefined use a variant's plan does not cover
     — a soundness bug in guided instrumentation (or, if the variant is
     MSan itself, in the instrumentation runtime);
   - [Behavior]: the instrumented run changed the program's observable
     outputs — instrumentation must be a pure observer;
   - [Precision]: a static plan has more checks than the paper's
     monotonicity chain allows (guided > MSan, or Opt II > Opt I) — not a
     correctness bug, but a regression of the entire point of the system.

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
  src : string;
  prog : Ir.Prog.t;
  analysis : Usher.Pipeline.analysis;
  native : Runtime.Interp.outcome;
  per_variant : (Usher.Config.variant * Runtime.Interp.outcome) list;
  divergences : divergence list;
}

let divergence_to_string (d : divergence) : string =
  match d with
  | Miss m ->
    Printf.sprintf "soundness miss: %s does not cover gt use at l%d%s%s"
      (Usher.Config.variant_name m.mvariant)
      m.mlabel
      (match m.mfunc with Some f -> " in " ^ f | None -> "")
      (if m.baseline_covers then " (MSan covers it)" else " (MSan misses it too)")
  | Behavior b ->
    Printf.sprintf "behavior divergence: %s changed outputs (%d vs %d values)"
      (Usher.Config.variant_name b.bvariant)
      (List.length b.got) (List.length b.expected)
  | Precision p ->
    Printf.sprintf "precision regression: %s has %d checks > %s's %d"
      (Usher.Config.variant_name p.pvariant)
      p.checks
      (Usher.Config.variant_name p.against)
      p.against_checks

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

let func_of_label (prog : Ir.Prog.t) (l : Ir.Types.label) : string option =
  if l < 0 || l >= Ir.Prog.nlabels prog then None else (label_owners prog).(l)

let prefixed ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The seeded plan hole: delete every Check item a guided plan placed in a
   function whose name starts with [hole] — unless the function is
   distrusted, in which case its items came from the full overlay and a
   plan-construction bug would not affect them. *)
let apply_hole (a : Usher.Pipeline.analysis) (owners : string option array)
    (hole : string) (plan : Instr.Item.plan) : unit =
  let holed fn =
    prefixed ~prefix:hole fn && not (Hashtbl.mem a.distrusted fn)
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

(** Run the oracle on one program. Raises the front end's [Diag.Error] on
    uncompilable source and the interpreter's [Runtime_error] /
    [Resource_exhausted] when the *native* run traps (the caller treats
    both as "not a valid audit subject"). Instrumented-run traps that the
    native run does not exhibit are reported as [Behavior] divergences. *)
let check ?(level = Optim.Pipeline.O0_IM) ?(knobs = Usher.Config.default_knobs)
    ?limits ?(variants = Usher.Config.all_variants) ?hole
    ?(engine = Vm.Engine.Interp) (src : string) : report =
  let module I = Runtime.Interp in
  let prog, front_events = Usher.Pipeline.front_guarded ~level ~knobs src in
  let analysis = Usher.Pipeline.analyze ~knobs prog in
  analysis.events := front_events @ !(analysis.events);
  let owners = label_owners prog in
  (* One base serves the native run and every plan run. *)
  let base = I.compile_base prog in
  let native = I.run ?limits (I.attach base (Instr.Item.empty_plan prog)) in
  let divergences = ref [] in
  let push d = divergences := d :: !divergences in
  (* Run every variant; collect outcomes and static stats. *)
  let runs =
    List.map
      (fun v ->
        let plan, guided = Usher.Pipeline.plan_for analysis v in
        (match (hole, guided) with
        | Some h, Some _ -> apply_hole analysis owners h plan
        | _ -> ());
        let stats = Instr.Item.stats_of plan in
        let outcome =
          try Ok (Vm.Engine.run_plan ?limits engine base plan)
          with
          | Runtime.Interp.Runtime_error msg -> Error msg
          | Runtime.Interp.Resource_exhausted { what; limit } ->
            Error (Printf.sprintf "%s limit %d exhausted" what limit)
        in
        (v, stats, outcome))
      variants
  in
  let ran v = List.exists (fun (v', _, _) -> v' = v) runs in
  let outcome_of v =
    match List.find (fun (v', _, _) -> v' = v) runs with _, _, o -> o
  in
  let msan_covers lbl =
    ran Usher.Config.Msan
    &&
    match outcome_of Usher.Config.Msan with
    | Ok o -> Usher.Experiment.covered prog o.I.detections lbl
    | Error _ -> false
  in
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
        Hashtbl.iter
          (fun lbl () ->
            if not (Usher.Experiment.covered prog o.I.detections lbl) then
              push
                (Miss
                   {
                     mvariant = v;
                     mlabel = lbl;
                     mfunc = owners.(lbl);
                     baseline_covers = msan_covers lbl;
                   }))
          native.I.gt_uses)
    runs;
  (* Static-plan precision: checks must respect the paper's monotonicity
     chain — every guided plan prunes relative to MSan, and Opt II only
     ever removes checks relative to Opt I. *)
  let checks_of v =
    match List.find (fun (v', _, _) -> v' = v) runs with _, s, _ ->
      s.Instr.Item.checks
  in
  let expect_le v1 v2 =
    if ran v1 && ran v2 then begin
      let c1 = checks_of v1 and c2 = checks_of v2 in
      if c1 > c2 then
        push
          (Precision
             { pvariant = v1; checks = c1; against = v2; against_checks = c2 })
    end
  in
  List.iter
    (fun v -> if v <> Usher.Config.Msan then expect_le v Usher.Config.Msan)
    variants;
  expect_le Usher.Config.Usher_full Usher.Config.Usher_opt1;
  {
    src;
    prog;
    analysis;
    native;
    per_variant =
      List.filter_map
        (fun (v, _, o) -> match o with Ok o -> Some (v, o) | Error _ -> None)
        runs;
    divergences = List.rev !divergences;
  }
