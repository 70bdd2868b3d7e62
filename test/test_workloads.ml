(* The SPEC2000 analog generator and end-to-end experiments on it. *)

open Helpers

let tiny p = Workloads.Spec2000.source ~scale:4 p

let generator_tests =
  [
    tc "generation is deterministic" (fun () ->
        let p = Workloads.Spec2000.find "164.gzip" in
        check_str "same source" (tiny p) (tiny p));
    tc "scale changes only iteration counts" (fun () ->
        let p = Workloads.Spec2000.find "181.mcf" in
        let a = Workloads.Spec2000.source ~scale:4 p in
        let b = Workloads.Spec2000.source ~scale:8 p in
        check_bool "different" true (a <> b);
        check_int "same length modulo numbers" (List.length (String.split_on_char '\n' a))
          (List.length (String.split_on_char '\n' b)));
    tc "all fifteen benchmarks exist" (fun () ->
        check_int "count" 15 (List.length Workloads.Spec2000.all));
    tc "every benchmark compiles, verifies and runs clean" (fun () ->
        List.iter
          (fun (p : Workloads.Profile.t) ->
            let prog = front (tiny p) in
            Ir.Verify.check_ssa prog;
            let o = Runtime.Interp.run_native prog in
            let expected_gt = if p.bug then 1 else 0 in
            check_int (p.pname ^ " gt uses") expected_gt (Hashtbl.length o.gt_uses))
          Workloads.Spec2000.all);
    tc "rng is splittable and stable" (fun () ->
        let r = Workloads.Rng.create 42 in
        let a = Workloads.Rng.int r 1000 in
        let r' = Workloads.Rng.create 42 in
        check_int "stable" a (Workloads.Rng.int r' 1000);
        check_bool "range" true (a >= 0 && a < 1000));
  ]

let experiment_tests =
  [
    tc "parser analog: the bug is found by every variant" (fun () ->
        let p = Workloads.Spec2000.find "197.parser" in
        let e = Usher.Experiment.run ~name:"parser" (tiny p) in
        check_int "gt" 1 (List.length e.gt_uses);
        List.iter
          (fun (r : Usher.Experiment.variant_result) ->
            check_int (Usher.Config.variant_name r.variant) 1
              (List.length r.detections))
          e.results);
    tc "gzip analog: slowdown and static ladders are monotone" (fun () ->
        let p = Workloads.Spec2000.find "164.gzip" in
        let e = Usher.Experiment.run ~name:"gzip" (tiny p) in
        let r v = Usher.Experiment.result_for e v in
        let ordered f =
          f (r Usher.Config.Msan) >= f (r Usher.Config.Usher_tl)
          && f (r Usher.Config.Usher_tl) >= f (r Usher.Config.Usher_tl_at)
          && f (r Usher.Config.Usher_tl_at) >= f (r Usher.Config.Usher_opt1)
          && f (r Usher.Config.Usher_opt1) >= f (r Usher.Config.Usher_full)
        in
        check_bool "slowdowns" true
          (ordered (fun (x : Usher.Experiment.variant_result) -> x.slowdown_pct));
        check_bool "propagations" true
          (ordered (fun x -> float_of_int x.static_stats.propagations));
        check_bool "checks" true
          (ordered (fun x -> float_of_int x.static_stats.checks)));
    tc "mcf analog: Usher almost free" (fun () ->
        let p = Workloads.Spec2000.find "181.mcf" in
        let e = Usher.Experiment.run ~name:"mcf" (tiny p) in
        let usher = Usher.Experiment.result_for e Usher.Config.Usher_full in
        let msan = Usher.Experiment.result_for e Usher.Config.Msan in
        check_bool "usher under 10%" true (usher.slowdown_pct < 10.0);
        check_bool "msan substantial" true (msan.slowdown_pct > 100.0));
    tc "experiments run at O1 and O2 too" (fun () ->
        let p = Workloads.Spec2000.find "256.bzip2" in
        List.iter
          (fun level ->
            let e = Usher.Experiment.run ~name:"bzip2" ~level (tiny p) in
            check_bool "some results" true (List.length e.results = 5))
          [ Optim.Pipeline.O1; Optim.Pipeline.O2 ]);
    tc "table-1 statistics are populated" (fun () ->
        let p = Workloads.Spec2000.find "188.ammp" in
        let e = Usher.Experiment.run ~name:"ammp" (tiny p) in
        let t = e.table1 in
        check_bool "kloc" true (t.kloc > 0.0);
        check_bool "var_tl" true (t.var_tl > 0);
        check_bool "heap objects" true (t.var_at_heap > 0);
        check_bool "vfg" true (t.vfg_nodes > 0);
        check_bool "%F in range" true
          (t.pct_uninit_alloc >= 0.0 && t.pct_uninit_alloc <= 100.0);
        check_bool "semi applied" true (t.semi_per_heap_site > 0.0));
    tc "ablation knobs never improve precision" (fun () ->
        let p = Workloads.Spec2000.find "164.gzip" in
        let src = tiny p in
        let usher knobs = static_stats ~knobs src Usher.Config.Usher_full in
        let d = Usher.Config.default_knobs in
        let base = usher d in
        check_bool "no semi-strong costs props" true
          ((usher { d with semi_strong = false }).propagations >= base.propagations);
        check_bool "ctx-insensitive costs props" true
          ((usher { d with context_sensitive = false }).propagations
          >= base.propagations);
        (* field insensitivity collapses objects to one location, which can
           *reduce* raw item counts while losing precision; the precision
           loss shows up as surviving checks *)
        check_bool "field-insensitive costs checks" true
          ((usher { d with field_sensitive = false }).checks >= base.checks));
  ]

let suites =
  [ ("workloads.generator", generator_tests);
    ("workloads.experiments", experiment_tests) ]
