(* The certifying verifier layer (lib/verify): independent replay checkers
   for the points-to solution, the memory SSA and the VFG/Γ fixpoints.

   Unit tests pin both directions: clean analyses — hand programs and the
   stock SPEC analogs — must verify with zero violations, and each
   corruption mode (pts-bitflip, drop-vfg-edge, gamma-flip) must be caught
   by exactly the matching checker, both at the checker level and through
   the pipeline's --verify path where the violation feeds the degradation
   ladder. The qcheck property asserts the Pta completeness argument:
   clearing ANY set points-to bit of a solved instance breaks some
   replayed constraint. *)

open Helpers
module A = Analysis.Andersen

let knobs = Usher.Config.default_knobs
let vknobs = { knobs with Usher.Config.verify = true }

let corrupt phase c =
  { Usher.Config.fphase = phase; ffunc = None; fkind = Usher.Config.Corrupt c }

let undef_src =
  "int id(int x) { return x; }\n\
   int main() { int u; int y = id(u); if (y > 0) { print(1); } return 0; }"

(* An undefined use in a program that also has points-to facts: pure
   scalar programs have empty points-to sets, leaving pts-bitflip nothing
   to corrupt. *)
let ptr_undef_src =
  "int main() { int u; int a = 1; int *p = &a; *p = 2;\n\
   if (u + *p > 0) { print(1); } return 0; }"

let heap_src =
  "struct N { int v; struct N *next; };\n\
   struct N *mk(int v) {\n\
  \  struct N *n = (struct N *)malloc(sizeof(struct N));\n\
  \  n->v = v; n->next = 0; return n; }\n\
   int main() {\n\
  \  struct N *h = 0; int i;\n\
  \  for (i = 0; i < 4; i = i + 1) { struct N *n = mk(i); n->next = h; h = n; }\n\
  \  int s = 0; while (h != 0) { s = s + h->v; h = h->next; }\n\
  \  print(s); return 0; }"

let array_src =
  "int g[16];\n\
   void fill(int *a, int n) { int i; for (i = 0; i < n; i = i + 1) { a[i] = i; } }\n\
   int main() { fill(g, 16); print(g[7]); return 0; }"

let check_strs = Alcotest.(check (list string))

(* The checkers the pipeline runs under [--verify], in its order. *)
let checkers = [ "pta"; "ssa"; "vfg"; "vfg-tl"; "gamma"; "gamma-tl" ]

(* Analyze [src] under [vknobs]: every checker reports, none rejects, and
   each replays some facts. *)
let check_clean what src =
  let _, a = analyze ~knobs:vknobs src in
  check_strs (what ^ ": checkers")
    checkers
    (List.map (fun (r : Verify.Report.t) -> r.checker) a.verify_reports);
  check_bool (what ^ ": no events") true (!(a.events) = []);
  List.iter
    (fun (r : Verify.Report.t) ->
      check_int
        (Printf.sprintf "%s: %s violations" what r.checker)
        0
        (Verify.Report.nviolations r);
      check_bool (Printf.sprintf "%s: %s replayed facts" what r.checker) true
        (r.checked > 0))
    a.verify_reports

(* Every variant still detects the undefined use and preserves outputs —
   a rejected certificate must degrade, never un-instrument. *)
let check_sound ?(src = undef_src) knobs =
  let prog, a = analyze ~knobs src in
  let native = Runtime.Interp.run_native prog in
  check_bool "has a ground-truth use" true (Hashtbl.length native.gt_uses > 0);
  List.iter
    (fun v ->
      let plan, _ = Usher.Pipeline.plan_for a v in
      let o = Runtime.Interp.run_plan prog plan in
      check_ints (Usher.Config.variant_name v ^ " outputs") native.outputs
        o.outputs;
      Hashtbl.iter
        (fun l () ->
          check_bool
            (Printf.sprintf "%s covers l%d" (Usher.Config.variant_name v) l)
            true
            (Usher.Experiment.covered prog o.detections l))
        native.gt_uses)
    Usher.Config.all_variants;
  a

let has_event (a : Usher.Pipeline.analysis) needle =
  let contains hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.exists (fun ev -> contains (Usher.Degrade.to_string ev)) !(a.events)

let clean_tests =
  [
    tc "hand programs verify green" (fun () ->
        List.iter
          (fun (name, src) -> check_clean name src)
          [ ("undef", undef_src); ("heap", heap_src); ("array", array_src) ]);
    tc "stock workloads verify green (scale 2)" (fun () ->
        List.iter
          (fun (p : Workloads.Profile.t) ->
            check_clean p.pname (Workloads.Spec2000.source ~scale:2 p))
          Workloads.Spec2000.all);
    tc "verify=crash: every checker aborts, none reports" (fun () ->
        let k =
          {
            vknobs with
            Usher.Config.inject =
              [ { Usher.Config.fphase = Diag.Verify; ffunc = None;
                  fkind = Usher.Config.Crash } ];
          }
        in
        let _, a = analyze ~knobs:k heap_src in
        check_bool "no reports" true (a.verify_reports = []);
        check_int "one event per checker" 6 (List.length !(a.events));
        check_strs "aborted checkers" checkers
          (Usher.Pipeline.aborted_checkers a);
        check_bool "not degraded" false a.degraded_all);
    tc "--verify pipeline: reports present, nothing degraded" (fun () ->
        let _, a = analyze ~knobs:vknobs undef_src in
        check_int "six reports" 6 (List.length a.verify_reports);
        check_bool "all ok" true (List.for_all Verify.Report.ok a.verify_reports);
        check_bool "no events" true (!(a.events) = []);
        check_bool "not degraded" false a.degraded_all;
        List.iter
          (fun (r : Verify.Report.t) ->
            check_bool (r.checker ^ " wall time recorded") true (r.wall_s >= 0.0))
          a.verify_reports);
    tc "verify off: no reports" (fun () ->
        let _, a = analyze undef_src in
        check_bool "empty" true (a.verify_reports = []));
    tc "analysis stats carry per-checker rows" (fun () ->
        let prog, a = analyze ~knobs:vknobs undef_src in
        ignore prog;
        let t = Usher.Analysis_stats.compute ~src:undef_src a in
        check_int "six rows" 6 (List.length t.verify_checkers);
        List.iter
          (fun (_, _, viols) -> check_int "clean row" 0 viols)
          t.verify_checkers);
  ]

(* ---- checker-level detection: corrupt one artifact directly ---------- *)

let artifacts src =
  let prog = Usher.Pipeline.front src in
  let pa = A.run prog in
  let cg = Analysis.Callgraph.build prog pa in
  let mr = Analysis.Modref.compute prog pa cg in
  let mssa = Memssa.build prog pa cg mr in
  let vfg = Vfg.Build.build prog pa cg mr mssa in
  let gamma = Vfg.Resolve.resolve vfg.graph in
  (prog, pa, cg, mr, mssa, vfg, gamma)

let checker_tests =
  [
    tc "pts-bitflip caught by Pta, not by Ssa/Vfg" (fun () ->
        let prog, pa, _, _, _, _, _ = artifacts heap_src in
        check_bool "clean first" true (Verify.Report.ok (Verify.Pta.check prog pa));
        check_bool "corrupted" true (Usher.Fault.corrupt_pts pa <> None);
        let r = Verify.Pta.check prog pa in
        check_bool "pta rejects" false (Verify.Report.ok r);
        check_bool "located message" true
          (List.length (Verify.Report.errors r) >= 1));
    tc "drop-vfg-edge caught by the structure checker" (fun () ->
        let _, _, _, _, _, vfg, _ = artifacts heap_src in
        check_bool "clean first" true
          (Verify.Report.ok (Verify.Vfg.check_structure vfg));
        check_bool "corrupted" true (Usher.Fault.corrupt_vfg vfg.graph <> None);
        let r = Verify.Vfg.check_structure vfg in
        check_bool "vfg rejects" false (Verify.Report.ok r));
    tc "gamma-flip caught by the Γ checker with a witness" (fun () ->
        let _, _, _, _, _, vfg, gamma = artifacts heap_src in
        check_bool "clean first" true
          (Verify.Report.ok (Verify.Vfg.check_gamma vfg gamma));
        check_bool "corrupted" true (Usher.Fault.corrupt_gamma gamma <> None);
        let r = Verify.Vfg.check_gamma vfg gamma in
        check_bool "gamma rejects" false (Verify.Report.ok r));
    tc "corruption specs round-trip" (fun () ->
        List.iter
          (fun s ->
            match Usher.Fault.of_spec s with
            | Ok f -> check_str "round trip" s (Usher.Fault.to_string f)
            | Error e -> Alcotest.fail e)
          [
            "andersen=pts-bitflip"; "vfg=drop-vfg-edge"; "resolve=gamma-flip";
          ]);
  ]

(* ---- pipeline integration: violations feed the ladder ---------------- *)

(* Analyze [src] under [--verify] with corruption [c] injected at
   [phase]: the checkers that ran are [reported], and none aborted. *)
let rejected_under ?(reported = checkers) phase c src =
  let _, a =
    analyze ~knobs:{ vknobs with Usher.Config.inject = [ corrupt phase c ] } src
  in
  check_strs "checkers" reported
    (List.map (fun (r : Verify.Report.t) -> r.checker) a.verify_reports);
  check_strs "none aborted" [] (Usher.Pipeline.aborted_checkers a);
  a

let rejected_checkers (a : Usher.Pipeline.analysis) =
  List.filter_map
    (fun (r : Verify.Report.t) ->
      if Verify.Report.ok r then None
      else begin
        check_bool (r.checker ^ " has errors") true (Verify.Report.errors r <> []);
        Some r.checker
      end)
    a.verify_reports

let pipeline_tests =
  [
    tc "pts-bitflip: pta rejection degrades everything, stays sound" (fun () ->
        let k =
          {
            vknobs with
            Usher.Config.inject =
              [ corrupt Diag.Andersen Usher.Config.Pts_bitflip ];
          }
        in
        let a = check_sound ~src:ptr_undef_src k in
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all;
        check_bool "unverified pta event" true (has_event a "unverified pta");
        let pta =
          List.find
            (fun (r : Verify.Report.t) -> r.checker = "pta")
            a.verify_reports
        in
        check_bool "pta flagged" false (Verify.Report.ok pta));
    tc "drop-vfg-edge: structure rejection distrusts the function" (fun () ->
        let k =
          {
            vknobs with
            Usher.Config.inject =
              [ corrupt Diag.Vfg_build Usher.Config.Drop_vfg_edge ];
          }
        in
        let a = check_sound k in
        check_bool "not degraded_all" false a.Usher.Pipeline.degraded_all;
        check_bool "unverified vfg event" true (has_event a "unverified vfg");
        check_bool "something distrusted" true
          (Usher.Pipeline.distrusted_functions a <> []));
    tc "gamma-flip: Γ rejection degrades to all-undefined, stays sound"
      (fun () ->
        let k =
          {
            vknobs with
            Usher.Config.inject =
              [ corrupt Diag.Resolve Usher.Config.Gamma_flip ];
          }
        in
        let a = check_sound k in
        check_bool "not degraded_all" false a.Usher.Pipeline.degraded_all;
        check_bool "unverified gamma event" true
          (has_event a "unverified gamma");
        (* the rejected Γ fell to all-⊥ *)
        let n = Vfg.Graph.nnodes a.Usher.Pipeline.vfg.Vfg.Build.graph in
        let bot = ref 0 in
        for id = 0 to n - 1 do
          if Vfg.Resolve.is_undef a.Usher.Pipeline.gamma id then incr bot
        done;
        check_int "all bottom" n !bot);
    (* What [usherc check] reads: each corruption is rejected by exactly
       the matching inline checkers, with located violations, and no
       checker aborts. *)
    tc "pts-bitflip: pta alone rejects, even at rung 4" (fun () ->
        (* a rejected points-to solution stops the sequence: nothing
           downstream of it is checked *)
        let a =
          rejected_under ~reported:[ "pta" ] Diag.Andersen
            Usher.Config.Pts_bitflip ptr_undef_src
        in
        check_strs "rejected" [ "pta" ] (rejected_checkers a);
        (* the rejection must outrank "no static certificates in use" *)
        check_bool "degraded_all" true a.Usher.Pipeline.degraded_all);
    tc "drop-vfg-edge: vfg alone rejects, in a distrusted function" (fun () ->
        let a = rejected_under Diag.Vfg_build Usher.Config.Drop_vfg_edge heap_src in
        check_strs "rejected" [ "vfg" ] (rejected_checkers a);
        List.iter
          (fun (v : Verify.Report.violation) ->
            match v.vfunc with
            | Some fn ->
              check_bool (fn ^ " distrusted") true
                (List.mem fn (Usher.Pipeline.distrusted_functions a))
            | None -> Alcotest.fail "vfg violation names no function")
          (List.concat_map Verify.Report.errors a.verify_reports));
    tc "gamma-flip: gamma and gamma-tl reject" (fun () ->
        let a = rejected_under Diag.Resolve Usher.Config.Gamma_flip heap_src in
        check_strs "rejected" [ "gamma"; "gamma-tl" ] (rejected_checkers a));
    tc "corruption without --verify goes unnoticed by the pipeline" (fun () ->
        (* the damage is real but nothing checks it: analyze must not
           degrade; the Pta checker run directly then catches it *)
        let k =
          {
            knobs with
            Usher.Config.inject =
              [ corrupt Diag.Andersen Usher.Config.Pts_bitflip ];
          }
        in
        let _, a = analyze ~knobs:k ptr_undef_src in
        check_bool "no events" true (!(a.events) = []);
        check_bool "no reports" true (a.verify_reports = []);
        let pta = Verify.Pta.check a.prog a.pa in
        check_bool "the Pta checker catches it" false (Verify.Report.ok pta));
    (* The dropped edge is main's call edge from the constant 16 to
       fill's parameter. With main distrusted, the TL graph's copy of
       that edge runs from the T root to a trusted parameter: its call
       site, not its endpoints, puts it in main. *)
    tc "drop-vfg-edge: no warning for a distrusted call site's edges" (fun () ->
        let a = rejected_under Diag.Vfg_build Usher.Config.Drop_vfg_edge array_src in
        check_strs "rejected" [ "vfg" ] (rejected_checkers a);
        check_strs "distrusted" [ "main" ] (Usher.Pipeline.distrusted_functions a);
        List.iter
          (fun (r : Verify.Report.t) ->
            check_int (r.checker ^ " warnings") 0 (List.length (Verify.Report.warnings r)))
          a.verify_reports);
  ]

(* ---- property: any cleared pts bit is detected ----------------------- *)

(* Enumerate every set bit of every representative node's points-to set,
   pick one by the seed, clear it, and re-run the Pta replay. The
   completeness argument (see lib/verify/pta.ml) says the FIRST derivation
   of the cleared fact is now a violated constraint, so the checker must
   reject — for any bit, on any program. *)
let pts_bitflip_detected_prop seed =
  let src = Test_properties.gen_program seed in
  let prog = Usher.Pipeline.front src in
  let pa = A.run prog in
  let nnodes =
    if pa.A.wpn = 0 then 0 else Array.length pa.A.pts_words / pa.A.wpn
  in
  let bits = ref [] in
  for n = 0 to nnodes - 1 do
    if pa.A.repr.(n) = n then
      for w = 0 to pa.A.wpn - 1 do
        let word = pa.A.pts_words.((n * pa.A.wpn) + w) in
        for b = 0 to 62 do
          if word land (1 lsl b) <> 0 then bits := (n, w, b) :: !bits
        done
      done
  done;
  match !bits with
  | [] -> true (* no points-to facts at all: nothing to corrupt *)
  | all ->
    let n, w, b = List.nth all (abs seed mod List.length all) in
    let idx = (n * pa.A.wpn) + w in
    pa.A.pts_words.(idx) <- pa.A.pts_words.(idx) lxor (1 lsl b);
    Array.fill pa.A.pts_cache 0 (Array.length pa.A.pts_cache) None;
    not (Verify.Report.ok (Verify.Pta.check prog pa))

(* And the converse sanity: the replay itself is deterministic — a clean
   solution verifies green twice in a row (the checker must not mutate
   what it checks). *)
let pta_idempotent_prop seed =
  let src = Test_properties.gen_program seed in
  let prog = Usher.Pipeline.front src in
  let pa = A.run prog in
  Verify.Report.ok (Verify.Pta.check prog pa)
  && Verify.Report.ok (Verify.Pta.check prog pa)

let prop = Test_properties.prop

let suites =
  [
    ("verify.clean", clean_tests);
    ("verify.checkers", checker_tests @ pipeline_tests);
    ( "verify.properties",
      [
        prop "clearing any set pts bit is always detected" 60
          pts_bitflip_detected_prop;
        prop "clean solutions verify green, repeatedly" 30 pta_idempotent_prop;
      ] );
  ]
