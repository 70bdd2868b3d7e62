(* The resilience ladder under fire: resource budgets, injected faults and
   the soundness guarantee that degradation only ever ADDS instrumentation.

   Unit tests pin each rung of the ladder on known programs; the qcheck
   properties then assert, over random programs and random faults, that
   the pipeline always returns a plan, instrumented runs preserve
   behaviour, every ground-truth undefined use stays reported, and the
   budgeted plan's check set dominates the unbudgeted one. *)

open Helpers

let knobs = Usher.Config.default_knobs

let inject faults = { knobs with Usher.Config.inject = faults }
let crash ?func phase = { Usher.Config.fphase = phase; ffunc = func; fkind = Usher.Config.Crash }
let exhaust ?func phase = { Usher.Config.fphase = phase; ffunc = func; fkind = Usher.Config.Exhaust }

let undef_src =
  "int id(int x) { return x; }\n\
   int main() { int u; int y = id(u); if (y > 0) { print(1); } return 0; }"

(* Every variant still detects the undefined use and preserves outputs. *)
let check_sound ?(src = undef_src) knobs =
  let prog, a = analyze ~knobs src in
  let native = Runtime.Interp.run_native prog in
  check_bool "has a ground-truth use" true (Hashtbl.length native.gt_uses > 0);
  List.iter
    (fun v ->
      let plan, _ = Usher.Pipeline.plan_for a v in
      let o = Runtime.Interp.run_plan prog plan in
      check_ints (Usher.Config.variant_name v ^ " outputs") native.outputs o.outputs;
      Hashtbl.iter
        (fun l () ->
          check_bool
            (Printf.sprintf "%s covers l%d" (Usher.Config.variant_name v) l)
            true
            (Usher.Experiment.covered prog o.detections l))
        native.gt_uses)
    Usher.Config.all_variants;
  a

let ladder_tests =
  [
    tc "rung 4: zero wall-clock budget degrades everything, stays sound" (fun () ->
        let a = check_sound { knobs with Usher.Config.budget_ms = Some 0 } in
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all;
        check_bool "events recorded" true (!(a.Usher.Pipeline.events) <> []));
    tc "rung 4: Andersen exhaustion degrades everything" (fun () ->
        let src =
          "int main() { int u; int a = 1; int *p = &a; *p = 2;\n\
           if (u + *p > 0) { print(1); } return 0; }"
        in
        let a = check_sound ~src (inject [ exhaust Diag.Andersen ]) in
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all);
    tc "rung 4: callgraph crash degrades everything" (fun () ->
        let a = check_sound (inject [ crash Diag.Callgraph ]) in
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all);
    tc "rung 4: mod/ref crash degrades everything" (fun () ->
        let a = check_sound (inject [ crash Diag.Modref ]) in
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all);
    tc "rung 3: memssa fault on one function distrusts only it" (fun () ->
        let a = check_sound (inject [ crash ~func:"id" Diag.Memssa ]) in
        check_bool "not degraded_all" false a.Usher.Pipeline.degraded_all;
        check_bool "id distrusted" true
          (Usher.Pipeline.distrusted_functions a = [ "id" ]));
    tc "rung 3: vfg exhaustion on one function distrusts only it" (fun () ->
        let a = check_sound (inject [ exhaust ~func:"main" Diag.Vfg_build ]) in
        check_bool "not degraded_all" false a.Usher.Pipeline.degraded_all;
        check_bool "main distrusted" true
          (Usher.Pipeline.distrusted_functions a = [ "main" ]));
    tc "rung 2: resolution fault degrades Γ to all-undefined" (fun () ->
        let a = check_sound (inject [ crash Diag.Resolve ]) in
        check_bool "not degraded_all" false a.Usher.Pipeline.degraded_all;
        check_bool "nothing distrusted" true
          (Usher.Pipeline.distrusted_functions a = []);
        (* all-⊥ Γ: every node of the full graph is undefined *)
        let n = Vfg.Graph.nnodes a.Usher.Pipeline.vfg.Vfg.Build.graph in
        let bot = ref 0 in
        for id = 0 to n - 1 do
          if Vfg.Resolve.is_undef a.Usher.Pipeline.gamma id then incr bot
        done;
        check_int "all bottom" n !bot);
    tc "rung 2: resolve exhaustion degrades Γ, stays sound" (fun () ->
        let a = check_sound (inject [ exhaust Diag.Resolve ]) in
        check_bool "events recorded" true (!(a.Usher.Pipeline.events) <> []));
    tc "rung 1: Opt II fault keeps the redundant checks" (fun () ->
        let a = check_sound (inject [ crash Diag.Opt2 ]) in
        check_int "no redirections" 0 a.Usher.Pipeline.opt2.Vfg.Opt2.redirected);
    tc "instrument fault degrades that plan to full" (fun () ->
        let a = check_sound (inject [ crash Diag.Instrument ]) in
        (* the guided plans all fell back to full: same check count as MSan *)
        let checks v =
          (Instr.Item.stats_of (fst (Usher.Pipeline.plan_for a v))).Instr.Item.checks
        in
        check_int "tl = msan" (checks Usher.Config.Msan) (checks Usher.Config.Usher_tl));
    tc "optimizer fault falls back to a fresh unoptimized lowering" (fun () ->
        let k = inject [ crash Diag.Optim ] in
        let prog, events =
          Usher.Pipeline.front_guarded ~level:Optim.Pipeline.O2 ~knobs:k undef_src
        in
        check_bool "one event" true (List.length events = 1);
        Ir.Verify.check_ssa prog;
        (* behaves exactly like a plain unoptimized lowering *)
        let native = Runtime.Interp.run_native prog in
        let raw = Runtime.Interp.run_native (Tinyc.Lower.compile undef_src) in
        check_ints "outputs" raw.outputs native.outputs);
    tc "degradation events are ordered and printable" (fun () ->
        let _, a =
          analyze
            ~knobs:(inject [ crash ~func:"id" Diag.Memssa; crash Diag.Opt2 ])
            undef_src
        in
        let contains hay needle =
          let n = String.length needle and h = String.length hay in
          let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
          go 0
        in
        let evs = List.map Usher.Degrade.to_string !(a.Usher.Pipeline.events) in
        check_int "two events" 2 (List.length evs);
        check_bool "first names memssa/id" true
          (contains (List.nth evs 0) "memssa/id"));
  ]

let spec_tests =
  [
    tc "197.parser's seeded bug survives full degradation" (fun () ->
        let p = Workloads.Spec2000.find "197.parser" in
        let src = Workloads.Spec2000.source ~scale:10 p in
        let a =
          check_sound ~src { knobs with Usher.Config.budget_ms = Some 0 }
        in
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all);
  ]

let fault_spec_tests =
  [
    tc "fault spec round-trips" (fun () ->
        List.iter
          (fun s ->
            match Usher.Fault.of_spec s with
            | Ok f -> check_str "round trip" s (Usher.Fault.to_string f)
            | Error e -> Alcotest.fail e)
          [ "andersen=crash"; "memssa:main=exhaust"; "resolve=exhaust" ]);
    tc "fault spec defaults to crash" (fun () ->
        match Usher.Fault.of_spec "opt2" with
        | Ok f -> check_bool "crash" true (f.Usher.Config.fkind = Usher.Config.Crash)
        | Error e -> Alcotest.fail e);
    tc "fault spec rejects junk" (fun () ->
        check_bool "bad phase" true (Result.is_error (Usher.Fault.of_spec "nope"));
        check_bool "bad kind" true
          (Result.is_error (Usher.Fault.of_spec "memssa=explode")));
  ]

(* ---- properties ------------------------------------------------------- *)

(* A deterministic fault derived from the qcheck seed: any phase of the
   analysis, crash or exhaustion, whole-phase or aimed at one function. *)
let fault_of_seed seed : Usher.Config.fault =
  let phases =
    [ Diag.Optim; Diag.Andersen; Diag.Callgraph; Diag.Modref; Diag.Memssa;
      Diag.Vfg_build; Diag.Resolve; Diag.Opt2; Diag.Instrument ]
  in
  let fphase = List.nth phases (seed mod List.length phases) in
  let fkind = if seed / 16 mod 2 = 0 then Usher.Config.Crash else Usher.Config.Exhaust in
  let ffunc =
    (* only per-function phases consult function-scoped faults *)
    if (fphase = Diag.Memssa || fphase = Diag.Vfg_build) && seed / 32 mod 2 = 0
    then Some "main"
    else None
  in
  { Usher.Config.fphase; ffunc; fkind }

let fault_soundness_prop seed =
  let src = Test_properties.gen_program seed in
  let fault = fault_of_seed seed in
  let k = inject [ fault ] in
  let prog, events = Usher.Pipeline.front_guarded ~knobs:k src in
  let a = Usher.Pipeline.analyze ~knobs:k prog in
  ignore events;
  let native = Runtime.Interp.run_native prog in
  List.for_all
    (fun v ->
      let plan, _ = Usher.Pipeline.plan_for a v in
      let o = Runtime.Interp.run_plan prog plan in
      let reported l =
        if v = Usher.Config.Usher_full then
          Usher.Experiment.covered prog o.detections l
        else Hashtbl.mem o.detections l
      in
      o.outputs = native.outputs
      && Hashtbl.fold (fun l () acc -> acc && reported l) native.gt_uses true)
    Usher.Config.all_variants

(* Degradation monotonically adds checks: with "main" distrusted, the plan's
   check set contains every check of the undisturbed guided plan outside
   main, and exactly MSan's checks inside main. *)
let degradation_monotone_prop seed =
  let src = Test_properties.gen_program seed in
  let prog, a0 = analyze src in
  let k = inject [ crash ~func:"main" Diag.Memssa ] in
  let a1 = Usher.Pipeline.analyze ~knobs:k prog in
  let func_of : (int, string) Hashtbl.t = Hashtbl.create 256 in
  Ir.Prog.iter_instrs
    (fun f _ i -> Hashtbl.replace func_of i.Ir.Types.lbl f.Ir.Types.fname)
    prog;
  Ir.Prog.iter_terms
    (fun f _ t -> Hashtbl.replace func_of t.Ir.Types.tlbl f.Ir.Types.fname)
    prog;
  let checks plan =
    let acc = ref [] in
    Array.iteri
      (fun lbl items ->
        List.iter
          (fun (it : Instr.Item.item) ->
            match it.act with
            | Instr.Item.Check op -> acc := (lbl, op) :: !acc
            | _ -> ())
          items)
      plan.Instr.Item.items;
    List.sort_uniq compare !acc
  in
  let in_main (lbl, _) = Hashtbl.find_opt func_of lbl = Some "main" in
  let msan = checks (fst (Usher.Pipeline.plan_for a0 Usher.Config.Msan)) in
  List.for_all
    (fun v ->
      let c0 = checks (fst (Usher.Pipeline.plan_for a0 v)) in
      let c1 = checks (fst (Usher.Pipeline.plan_for a1 v)) in
      (* outside the distrusted function: the degraded plan only adds *)
      List.for_all
        (fun c -> in_main c || List.mem c c1)
        c0
      (* inside it: exactly the MSan checks *)
      && List.filter in_main c1 = List.filter in_main msan)
    [ Usher.Config.Usher_tl; Usher_tl_at; Usher_opt1; Usher_full ]

let prop = Test_properties.prop

(* Table 1's %B and S are the Usher_TL+AT and Usher_OptI plans' own
   traversals, whether [Experiment.run] hands them over or [compute]
   plans them itself. *)
let parser_src = Workloads.Spec2000.source ~scale:4 (Workloads.Spec2000.find "197.parser")

let pct n (a : Usher.Pipeline.analysis) =
  100.0 *. float_of_int n /. float_of_int (Vfg.Graph.nnodes a.vfg.graph)

let untimed (t : Usher.Analysis_stats.t) =
  { t with analysis_time_s = 0.0; analysis_mem_mb = 0.0 }

let stats_tests =
  [
    tc "%B and S equal a fresh traversal on an undegraded analysis" (fun () ->
        let e = Usher.Experiment.run ~name:"parser" parser_src in
        let a = e.analysis in
        let fresh opt1 = Instr.Guided.build ~options:{ Instr.Guided.opt1 } a.vfg a.gamma in
        check_bool "undegraded" true (!(a.events) = []);
        check_bool "%B" true (e.table1.pct_reaching = pct (fresh false).needed_nodes a);
        check_int "S" (fresh true).opt1_simplified e.table1.opt1_simplified;
        check_bool "compute alone agrees" true
          (untimed (Usher.Analysis_stats.compute ~src:parser_src a) = untimed e.table1));
    tc "under vfg:FUNC=crash %B and S describe the degraded plans" (fun () ->
        let fn =
          Ir.Prog.fold_funcs
            (fun acc (f : Ir.Types.func) ->
              if acc = "" && f.fname <> "main" then f.fname else acc)
            "" (front parser_src)
        in
        let knobs = inject [ crash ~func:fn Diag.Vfg_build ] in
        let e = Usher.Experiment.run ~name:"parser" ~knobs parser_src in
        let a = e.analysis in
        check_bool "distrusted" true (Usher.Pipeline.distrusted_functions a = [ fn ]);
        let traversal v = Option.get (snd (Usher.Pipeline.plan_for a v)) in
        check_bool "%B" true
          (e.table1.pct_reaching
          = pct (traversal Usher.Config.Usher_tl_at).needed_nodes a);
        check_int "S" (traversal Usher.Config.Usher_opt1).opt1_simplified
          e.table1.opt1_simplified;
        check_bool "compute alone agrees" true
          (untimed (Usher.Analysis_stats.compute ~src:parser_src a) = untimed e.table1));
    tc "Table 1 lists only the events raised before planning" (fun () ->
        let e =
          Usher.Experiment.run ~name:"parser" ~knobs:(inject [ crash Diag.Instrument ])
            parser_src
        in
        check_bool "the plans degraded" true (!(e.analysis.events) <> []);
        check_bool "no events listed" true (e.table1.degradation_events = []);
        check_bool "%B of a full plan" true (e.table1.pct_reaching = 100.0);
        check_int "S of a full plan" 0 e.table1.opt1_simplified);
  ]

let suites =
  [
    ( "faults.ladder", ladder_tests @ spec_tests @ fault_spec_tests );
    ("faults.table1", stats_tests);
    ( "faults.properties",
      [
        prop "any injected fault: plan exists, behaviour kept, nothing missed"
          80 fault_soundness_prop;
        prop "degradation monotonically adds checks" 60 degradation_monotone_prop;
      ] );
  ]
