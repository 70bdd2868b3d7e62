(* The evaluation harness: regenerates every table and figure of the paper's
   evaluation (§4) on the 15 SPEC CPU2000 C analogs.

     dune exec bench/main.exe              -- everything (default scale 30)
     dune exec bench/main.exe -- table1    -- Table 1 only
     dune exec bench/main.exe -- fig10     -- Figure 10 only
     dune exec bench/main.exe -- fig11     -- Figure 11 only
     dune exec bench/main.exe -- sec46     -- the §4.6 O1/O2 study
     dune exec bench/main.exe -- detect    -- §4.5 detection result
     dune exec bench/main.exe -- ablation  -- DESIGN.md §5 ablations
     dune exec bench/main.exe -- scale=60 fig10   -- override the input scale
   dune exec bench/main.exe -- --jobs 4 table1  -- run experiments on 4 domains
   dune exec bench/main.exe -- --trace t.json table1 -- also record a Chrome
                                                   trace_event timeline
   dune exec bench/main.exe -- --verify table1   -- run the lib/verify
                                                   certificate checkers over
                                                   every analysis

   Every invocation also writes BENCH_usher.json (schema [schema_version]
   below — single source of truth, mirrored by the CI validator):
   per-phase wall times, peak heap, deterministic work counters, the
   process-wide Obs.Metrics snapshot, per-variant instrumentation
   statistics and (under --verify) per-checker certificate times and
   violation counts, for whatever artifacts ran; see EXPERIMENTS.md.
   [--baseline FILE] fails the run if solve_iterations or
   states_explored regressed >20%% against the counters in FILE;
   [--update-baseline FILE] writes the counters of the experiments that
   ran into FILE, and refuses when none ran. [--trace FILE] additionally
   records every pipeline phase / function span, degradation instant and
   GC sample into FILE (chrome://tracing / ui.perfetto.dev format);
   tracing never changes tables, figures, or counters.

   Expected *shapes* (not absolute numbers) are printed next to each
   artifact; see EXPERIMENTS.md for the comparison against the paper. *)

module Cfg = Usher.Config
module Exp = Usher.Experiment
module J = Serve.Json

(* The single source of truth for the BENCH_usher.json schema tag; the CI
   validator compares the file's "schema" field with exactly this string.
   Bump it whenever a field is added, removed, or changes meaning. *)
let schema_version = "usher-bench/11"

let scale = ref 30

let jobs = ref 1
let trace_file : string option ref = ref None
let verify = ref false

let bench_knobs () = { Cfg.default_knobs with verify = !verify }

let profiles = Workloads.Spec2000.all

(* The 15 analogs are independent: fan them out over up to --jobs domains.
   [parallel_map] keeps results in input order and fails fast on the first
   failure, so output and exit status match the sequential run.

   Worker domains must never write to stdout — concurrent writes from
   domains interleave mid-line and garble the Table 1 / Figure 10 text.
   Any per-program report a worker produces (degradation / quarantine
   events) is rendered into a per-item buffer inside the worker and
   printed here, in input order, after the join. *)
let run_level level =
  let ran =
    Usher.Fork.parallel_map ~jobs:!jobs
      (fun (p : Workloads.Profile.t) ->
        let src = Workloads.Spec2000.source ~scale:!scale p in
        let e = Exp.run ~name:p.pname ~level ~knobs:(bench_knobs ()) src in
        let report = Buffer.create 64 in
        List.iter
          (fun ev ->
            Buffer.add_string report "  ";
            Buffer.add_string report (Usher.Degrade.to_string ev);
            Buffer.add_char report '\n')
          !(e.analysis.events);
        (p, src, e, Buffer.contents report))
      profiles
  in
  List.iter
    (fun ((p : Workloads.Profile.t), _, _, report) ->
      if report <> "" then
        Printf.printf "%s (%s) degradation report:\n%s" p.pname
          (Optim.Pipeline.level_to_string level)
          report)
    ran;
  List.map (fun (p, src, e, _) -> (p, src, e)) ran

let o0 = lazy (run_level Optim.Pipeline.O0_IM)
let o1 = lazy (run_level Optim.Pipeline.O1)
let o2 = lazy (run_level Optim.Pipeline.O2)

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sd (e : Exp.t) v = (Exp.result_for e v).slowdown_pct

(* ------------------------------------------------------------------ *)

let table1 () =
  Printf.printf "\n== Table 1: benchmark statistics under O0+IM ==\n";
  Printf.printf
    "%-13s %6s %6s %6s | %7s %5s %5s %5s | %4s %5s %5s %5s | %7s %4s %6s %6s\n"
    "benchmark" "KLOC" "time_s" "memMB" "VarTL" "stk" "heap" "glob" "%F" "S"
    "%SU" "%WU" "VFGnode" "%B" "S_opt1" "R_opt2";
  List.iter
    (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) ->
      let t = e.table1 in
      Printf.printf
        "%-13s %6.1f %6.2f %6.1f | %7d %5d %5d %5d | %4.0f %5.1f %5.0f %5.0f | %7d %4.0f %6d %6d\n"
        p.pname t.kloc t.analysis_time_s t.analysis_mem_mb t.var_tl
        t.var_at_stack t.var_at_heap t.var_at_global t.pct_uninit_alloc
        t.semi_per_heap_site t.pct_strong t.pct_weak_singleton t.vfg_nodes
        t.pct_reaching t.opt1_simplified t.opt2_redirected)
    (Lazy.force o0);
  let col f = avg (List.map (fun (_, _, e) -> f e.Exp.table1) (Lazy.force o0)) in
  Printf.printf
    "%-13s %6s %6.2f %6.1f | %7.0f %5.0f %5.0f %5.0f | %4.0f %5.1f %5.0f %5.0f | %7.0f %4.0f %6.0f %6.0f\n"
    "average" ""
    (col (fun t -> t.analysis_time_s))
    (col (fun t -> t.analysis_mem_mb))
    (col (fun t -> float_of_int t.var_tl))
    (col (fun t -> float_of_int t.var_at_stack))
    (col (fun t -> float_of_int t.var_at_heap))
    (col (fun t -> float_of_int t.var_at_global))
    (col (fun t -> t.pct_uninit_alloc))
    (col (fun t -> t.semi_per_heap_site))
    (col (fun t -> t.pct_strong))
    (col (fun t -> t.pct_weak_singleton))
    (col (fun t -> float_of_int t.vfg_nodes))
    (col (fun t -> t.pct_reaching))
    (col (fun t -> float_of_int t.opt1_simplified))
    (col (fun t -> float_of_int t.opt2_redirected));
  Printf.printf
    "(paper averages: %%F 34, S 3.2, %%SU 36, %%WU 46, %%B 38; analysis <10s, <600MB)\n"

let fig10 () =
  Printf.printf "\n== Figure 10: execution-time slowdowns vs native (%%) ==\n";
  Printf.printf "%-13s %8s %8s %9s %8s %8s\n" "benchmark" "MSan" "Usher_TL"
    "Ushr_TLAT" "UshrOptI" "Usher";
  List.iter
    (fun ((p : Workloads.Profile.t), _, e) ->
      Printf.printf "%-13s %8.0f %8.0f %9.0f %8.0f %8.0f\n" p.pname
        (sd e Cfg.Msan) (sd e Cfg.Usher_tl) (sd e Cfg.Usher_tl_at)
        (sd e Cfg.Usher_opt1) (sd e Cfg.Usher_full))
    (Lazy.force o0);
  let a v = avg (List.map (fun (_, _, e) -> sd e v) (Lazy.force o0)) in
  Printf.printf "%-13s %8.0f %8.0f %9.0f %8.0f %8.0f\n" "average" (a Cfg.Msan)
    (a Cfg.Usher_tl) (a Cfg.Usher_tl_at) (a Cfg.Usher_opt1) (a Cfg.Usher_full);
  Printf.printf "(paper averages:   302      272       193      181      123)\n"

let fig11 () =
  Printf.printf
    "\n== Figure 11: static shadow propagations / checks (%% of MSan) ==\n";
  Printf.printf "%-13s | %11s | %11s | %11s | %11s\n" "benchmark" "TL p/c"
    "TL+AT p/c" "OptI p/c" "Usher p/c";
  let accum = Array.make 8 0.0 in
  List.iter
    (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) ->
      let m = (Exp.result_for e Cfg.Msan).static_stats in
      let pc v =
        let s = (Exp.result_for e v).static_stats in
        ( 100.0 *. float_of_int s.propagations /. float_of_int (max 1 m.propagations),
          100.0 *. float_of_int s.checks /. float_of_int (max 1 m.checks) )
      in
      let tlp, tlc = pc Cfg.Usher_tl in
      let atp, atc = pc Cfg.Usher_tl_at in
      let o1p, o1c = pc Cfg.Usher_opt1 in
      let up, uc = pc Cfg.Usher_full in
      List.iteri (fun i v -> accum.(i) <- accum.(i) +. v)
        [ tlp; tlc; atp; atc; o1p; o1c; up; uc ];
      Printf.printf "%-13s | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f\n"
        p.pname tlp tlc atp atc o1p o1c up uc)
    (Lazy.force o0);
  let n = float_of_int (List.length profiles) in
  Printf.printf "%-13s | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f\n"
    "average" (accum.(0) /. n) (accum.(1) /. n) (accum.(2) /. n) (accum.(3) /. n)
    (accum.(4) /. n) (accum.(5) /. n) (accum.(6) /. n) (accum.(7) /. n);
  Printf.printf
    "(paper averages |    57    72 |    32    44 |    22    44 |    16    23)\n"

let sec46 () =
  Printf.printf "\n== Section 4.6: effect of compiler optimization levels ==\n";
  Printf.printf "%-13s | %7s %6s | %7s %6s | %7s %6s\n" "benchmark" "O0 MSan"
    "Usher" "O1 MSan" "Usher" "O2 MSan" "Usher";
  let rows =
    List.map2
      (fun (p, _, e0) ((_, _, e1), (_, _, e2)) -> (p, e0, e1, e2))
      (Lazy.force o0)
      (List.combine (Lazy.force o1) (Lazy.force o2))
  in
  List.iter
    (fun ((p : Workloads.Profile.t), e0, e1, e2) ->
      Printf.printf "%-13s | %7.0f %6.0f | %7.0f %6.0f | %7.0f %6.0f\n" p.pname
        (sd e0 Cfg.Msan) (sd e0 Cfg.Usher_full) (sd e1 Cfg.Msan)
        (sd e1 Cfg.Usher_full) (sd e2 Cfg.Msan) (sd e2 Cfg.Usher_full))
    rows;
  let f0 (a, _, _) = a and f1 (_, b, _) = b and f2 (_, _, c) = c in
  let a sel v = avg (List.map (fun (_, e0, e1, e2) -> sd (sel (e0, e1, e2)) v) rows) in
  let m0 = a f0 Cfg.Msan and u0 = a f0 Cfg.Usher_full in
  let m1 = a f1 Cfg.Msan and u1 = a f1 Cfg.Usher_full in
  let m2 = a f2 Cfg.Msan and u2 = a f2 Cfg.Usher_full in
  Printf.printf "%-13s | %7.0f %6.0f | %7.0f %6.0f | %7.0f %6.0f\n" "average"
    m0 u0 m1 u1 m2 u2;
  Printf.printf
    "reduction of MSan's cost by Usher: %.1f%% (O0+IM), %.1f%% (O1), %.1f%% (O2)\n"
    (100.0 *. (m0 -. u0) /. m0)
    (100.0 *. (m1 -. u1) /. m1)
    (100.0 *. (m2 -. u2) /. m2);
  Printf.printf
    "(paper: MSan 302/231/212, Usher 123/140/132; reductions 59.3/39.4/37.7)\n"

let detect () =
  Printf.printf "\n== Section 4.5: detection of the 197.parser undefined use ==\n";
  List.iter
    (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) ->
      if p.bug then begin
        Printf.printf "%s: ground-truth undefined uses at run time: %d\n" p.pname
          (List.length e.gt_uses);
        List.iter
          (fun (r : Exp.variant_result) ->
            Printf.printf "  %-12s reports %d use(s) of undefined values\n"
              (Cfg.variant_name r.variant)
              (List.length r.detections))
          e.results
      end)
    (Lazy.force o0);
  Printf.printf "(paper: one use detected in ppmatch() of 197.parser by all tools)\n"

let ablation () =
  Printf.printf
    "\n== Ablations (DESIGN.md section 5): Usher surviving checks, %% of MSan ==\n";
  let subjects = [ "164.gzip"; "188.ammp"; "197.parser" ] in
  Printf.printf "%-13s %9s | %10s %9s %9s %9s | %10s\n" "benchmark" "default"
    "no-semiSU" "ctx-insen" "field-ins" "no-clone" "small-arr8";
  List.iter
    (fun name ->
      let p = Workloads.Spec2000.find name in
      let src = Workloads.Spec2000.source ~scale:!scale p in
      let usher knobs =
        let prog, _ = Usher.Pipeline.front_guarded ~knobs src in
        let a = Usher.Pipeline.analyze ~knobs prog in
        (* checks are structure-independent: knobs that merge or split
           abstract objects change raw item counts, but a surviving check is
           a surviving check *)
        let checks v =
          (Instr.Item.stats_of (fst (Usher.Pipeline.plan_for a v))).checks
        in
        let m = checks Cfg.Msan in
        let u = checks Cfg.Usher_full in
        100.0 *. float_of_int u /. float_of_int (max 1 m)
      in
      let d = bench_knobs () in
      Printf.printf "%-13s %9.1f | %10.1f %9.1f %9.1f %9.1f | %10.1f\n" name
        (usher d)
        (usher { d with semi_strong = false })
        (usher { d with context_sensitive = false })
        (usher { d with field_sensitive = false })
        (usher { d with heap_cloning = false })
        (* the small-array extension (the paper's future work) should only
           ever *improve* precision *)
        (usher { d with small_array_fields = 8 }))
    subjects;
  Printf.printf
    "(disabling semi-strong updates or context sensitivity costs precision;\n\
    \ field-insensitivity and no-cloning merge abstract objects, so their raw\n\
    \ ratios can shift by noise at this scale; the small-array extension\n\
    \ never increases the ratio)\n"

(* ------------------------------------------------------------------ *)
(* BENCH_usher.json, written through Serve.Json. *)

let jint n = J.Num (float_of_int n)

(* Serve.Json would print a non-finite float as nan or inf, which is not
   JSON; such a measurement is written as 0. *)
let jfloat f = J.Num (if Float.is_finite f then f else 0.)

(* Every experiment actually run this invocation (forced lazies only, in
   deterministic profile order); the ablation's private runs are not
   experiment records and are deliberately excluded. *)
let collected_experiments () =
  List.concat_map
    (fun (lvl, l) ->
      if Lazy.is_val l then
        List.map
          (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) -> (lvl, p, e))
          (Lazy.force l)
      else [])
    [ ("O0+IM", o0); ("O1", o1); ("O2", o2) ]

let experiment_json (lvl, (p : Workloads.Profile.t), (e : Exp.t)) =
  let a = e.analysis in
  J.Obj
    [
      ("name", J.Str p.pname);
      ("level", J.Str lvl);
      ("analysis_cpu_s", jfloat a.analysis_time_s);
      ("analysis_mem_mb", jfloat a.analysis_mem_mb);
      ( "phase_wall_s",
        J.Obj (List.map (fun (n, t) -> (n, jfloat t)) a.phase_times_s) );
      ("solve_iterations", jint a.pa.solve_iterations);
      ("pa_sccs_collapsed", jint a.pa.sccs_collapsed);
      ("pa_edges_deduped", jint a.pa.edges_deduped);
      ("states_explored", jint a.gamma.states_explored);
      ("condensed_sccs", jint a.gamma.condensed_sccs);
      ("vfg_nodes", jint (Vfg.Graph.nnodes a.vfg.graph));
      ("vfg_edges", jint (Vfg.Graph.nedges a.vfg.graph));
      ( "verify",
        J.Arr
          (List.map
             (fun (r : Verify.Report.t) ->
               J.Obj
                 [
                   ("checker", J.Str r.checker);
                   ("wall_s", jfloat r.wall_s);
                   ("facts", jint r.checked);
                   ("violations", jint (Verify.Report.nviolations r));
                 ])
             a.verify_reports) );
      ( "variants",
        J.Arr
          (List.map
             (fun (r : Exp.variant_result) ->
               J.Obj
                 [
                   ("name", J.Str (Cfg.variant_name r.variant));
                   ("propagations", jint r.static_stats.propagations);
                   ("checks", jint r.static_stats.checks);
                   ("slowdown_pct", jfloat r.slowdown_pct);
                 ])
             e.results) );
    ]

(* The Obs.Metrics registry snapshot: process-wide work counters
   accumulated by every phase that ran. *)
let metrics_json () =
  J.Obj (List.map (fun (name, n) -> (name, jint n)) (Obs.Metrics.snapshot ()))

let write_bench_json ~wall ~cpu () =
  let j =
    J.Obj
      [
        ("schema", J.Str schema_version);
        ("scale", jint !scale);
        ("jobs", jint !jobs);
        ("traced", J.Bool (!trace_file <> None));
        ("verified", J.Bool !verify);
        ("total_wall_s", jfloat wall);
        ("total_cpu_s", jfloat cpu);
        ("top_heap_words", jint (Gc.quick_stat ()).Gc.top_heap_words);
        ("experiments", J.Arr (List.map experiment_json (collected_experiments ())));
        ("metrics", metrics_json ());
      ]
  in
  let oc = open_out "BENCH_usher.json" in
  output_string oc (J.to_line j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote BENCH_usher.json: %d experiment(s))\n"
    (List.length (collected_experiments ()))

(* ------------------------------------------------------------------ *)
(* Work-counter baseline: solve_iterations and states_explored are
   deterministic for a given (profile, level, scale), so CI can catch an
   algorithmic regression without trusting wall clocks. One line per
   experiment: name level solve_iterations states_explored. *)

let counter_rows () =
  List.map
    (fun (lvl, (p : Workloads.Profile.t), (e : Exp.t)) ->
      (p.pname, lvl, e.analysis.pa.solve_iterations,
       e.analysis.gamma.states_explored))
    (collected_experiments ())

let write_baseline file =
  if counter_rows () = [] then begin
    prerr_endline "bench: no experiment ran; not writing an empty baseline";
    exit 1
  end;
  let oc = open_out file in
  output_string oc
    "# usher bench work counters: name level solve_iterations states_explored\n";
  Printf.fprintf oc "# generated at scale %d\n" !scale;
  List.iter
    (fun (name, lvl, a, b) -> Printf.fprintf oc "%s %s %d %d\n" name lvl a b)
    (counter_rows ());
  close_out oc;
  Printf.printf "(wrote baseline counters to %s)\n" file

let check_baseline file =
  let base = Hashtbl.create 64 in
  let ic = open_in file in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match
           String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
         with
         | [ name; lvl; si; se ] ->
           Hashtbl.replace base (name, lvl)
             (int_of_string si, int_of_string se)
         | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let failures = ref 0 in
  let checked = ref 0 in
  List.iter
    (fun (name, lvl, a, b) ->
      match Hashtbl.find_opt base (name, lvl) with
      | None ->
        Printf.printf "baseline: no entry for %s %s (skipped)\n" name lvl
      | Some (si, se) ->
        incr checked;
        let chk what now was =
          if was > 0 && float_of_int now > 1.2 *. float_of_int was then begin
            incr failures;
            Printf.printf "REGRESSION %s %s: %s %d -> %d (>20%%)\n" name lvl
              what was now
          end
        in
        chk "solve_iterations" a si;
        chk "states_explored" b se)
    (counter_rows ());
  if !failures > 0 then begin
    Printf.printf "(baseline check FAILED: %d counter regression(s))\n" !failures;
    exit 1
  end
  else
    Printf.printf "(baseline check OK: %d experiment(s) within 20%% of %s)\n"
      !checked file

(* ------------------------------------------------------------------ *)

(* Each artifact runs under a top-level trace span, so a `--trace` timeline
   reads artifact -> experiment -> pipeline phase -> function. *)
let artifact name f =
  Obs.Trace.with_span ~cat:"bench" ("bench." ^ name) f

let () =
  let baseline = ref None in
  let rec parse = function
    | [] -> []
    | "--jobs" :: n :: rest ->
      jobs := max 1 (int_of_string n);
      parse rest
    | "--baseline" :: f :: rest ->
      baseline := Some (check_baseline, f);
      parse rest
    | "--update-baseline" :: f :: rest ->
      baseline := Some (write_baseline, f);
      parse rest
    | "--trace" :: f :: rest ->
      trace_file := Some f;
      parse rest
    | "--verify" :: rest ->
      verify := true;
      parse rest
    | a :: rest -> (
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "scale" ->
        scale := int_of_string (String.sub a (i + 1) (String.length a - i - 1));
        parse rest
      | _ -> a :: parse rest)
  in
  let args = parse (Array.to_list Sys.argv |> List.tl) in
  (* Tracing must be armed before any lazy experiment can run (and before
     worker domains spawn, so every domain records from its first event). *)
  if !trace_file <> None then Obs.Trace.start ();
  let t0 = Sys.time () in
  (* Monotonic wall clock: a clock step mid-run must not produce a
     negative or inflated total. *)
  let w0 = Obs.Clock.now_s () in
  (match args with
  | [] ->
    List.iter
      (fun (n, f) -> artifact n f)
      [
        ("table1", table1); ("fig10", fig10); ("fig11", fig11);
        ("sec46", sec46); ("detect", detect); ("ablation", ablation);
      ]
  | names ->
    List.iter
      (fun n ->
        match n with
        | "table1" -> artifact n table1
        | "fig10" -> artifact n fig10
        | "fig11" -> artifact n fig11
        | "sec46" -> artifact n sec46
        | "detect" -> artifact n detect
        | "ablation" -> artifact n ablation
        | other -> Printf.eprintf "unknown artifact %s\n" other)
      names);
  Printf.printf "\n(total bench time: %.1fs wall / %.1fs cpu at scale %d, jobs %d)\n"
    (Obs.Clock.elapsed_s w0)
    (Sys.time () -. t0)
    !scale !jobs;
  write_bench_json ~wall:(Obs.Clock.elapsed_s w0) ~cpu:(Sys.time () -. t0) ();
  (match !trace_file with
  | None -> ()
  | Some f ->
    Obs.Trace.write f;
    Printf.printf "(wrote Chrome trace to %s: %d event(s); open in \
                   chrome://tracing or ui.perfetto.dev)\n"
      f
      (List.length (Obs.Trace.events ())));
  Option.iter (fun (f, file) -> f file) !baseline
