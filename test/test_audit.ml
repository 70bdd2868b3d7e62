(* The soundness sentinel: ddmin reduction, incident artifacts, the
   quarantine list, the differential oracle and the audit loop.

   The pivotal scenario is seeded-miss end to end: inject a plan hole
   (delete the checks guided plans place in one function), audit, and
   assert the sentinel captures an incident, reduces it to a small repro,
   quarantines the function, and that the quarantined re-run covers the
   use again — including across a second loop run via the persisted
   quarantine list. *)

open Helpers

(* Fresh scratch directory per test. *)
let scratch_ctr = ref 0

let scratch_dir () =
  incr scratch_ctr;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "usher-audit-test-%d-%d" (Unix.getpid ()) !scratch_ctr)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

(* ---- ddmin ------------------------------------------------------------ *)

let contains_all need l = List.for_all (fun x -> List.mem x l) need

let ddmin_tests =
  [
    tc "ddmin recovers exactly the minimal witness" (fun () ->
        let input = List.init 20 Fun.id in
        let r = Audit.Reduce.ddmin (contains_all [ 3; 7 ]) input in
        check_ints "minimal witness" [ 3; 7 ] (List.sort compare r));
    tc "ddmin result is a fixed point" (fun () ->
        let pred = contains_all [ 0; 9; 17 ] in
        let r = Audit.Reduce.ddmin pred (List.init 30 Fun.id) in
        check_bool "pred holds" true (pred r);
        check_ints "second pass cannot shrink" r (Audit.Reduce.ddmin pred r));
    tc "ddmin returns the input unchanged when pred fails on it" (fun () ->
        let input = [ 1; 2; 3 ] in
        check_ints "unchanged" input
          (Audit.Reduce.ddmin (fun _ -> false) input));
    tc "ddmin on a singleton" (fun () ->
        check_ints "kept" [ 5 ] (Audit.Reduce.ddmin (fun _ -> true) [ 5 ]));
  ]

(* Random witness sets: ddmin must terminate and return exactly the
   witness (the predicate "contains all of S" has S as its unique
   1-minimal subset). *)
let ddmin_prop seed =
  let st = Workloads.Rng.create seed in
  let n = 2 + Workloads.Rng.int st 40 in
  let input = List.init n Fun.id in
  let need =
    List.filter (fun _ -> Workloads.Rng.int st 4 = 0) input
  in
  let r = Audit.Reduce.ddmin (contains_all need) input in
  if need = [] then
    (* classic ddmin stops at granularity 1, so a trivially-true predicate
       keeps a single element rather than reaching the empty list *)
    List.length r <= 1
  else List.sort compare r = List.sort compare need

(* ---- pretty-printer round trip ---------------------------------------- *)

let roundtrip_profiles = [ "164.gzip"; "197.parser"; "181.mcf" ]

let pretty_tests =
  List.map
    (fun name ->
      tc (Printf.sprintf "pretty round trip is structural identity: %s" name)
        (fun () ->
          let src =
            Workloads.Spec2000.source ~scale:2 (Workloads.Spec2000.find name)
          in
          let ast = Tinyc.Parser.parse_program src in
          let printed = Tinyc.Pretty.program_to_string ast in
          let ast2 = Tinyc.Parser.parse_program printed in
          check_bool "parse (print ast) = ast" true (ast = ast2);
          check_ints "behaviour preserved" (outputs src) (outputs printed)))
    roundtrip_profiles

(* ---- mutators ---------------------------------------------------------- *)

let mutate_src =
  "int f(int a) { int x = 1; int y = 2; x = a; y = x; if (a > 0) { x = 3; } \
   else { x = 4; } return x + y; }\n\
   int main() { print(f(1)); return 0; }"

let mutate_tests =
  [
    tc "mutation sites are counted and out-of-range sites rejected" (fun () ->
        let ast = Tinyc.Parser.parse_program mutate_src in
        List.iter
          (fun k ->
            let n = Audit.Mutate.count k ast in
            check_bool (Audit.Mutate.kind_name k ^ " has sites") true (n > 0);
            check_bool "out-of-range site"  true
              (Audit.Mutate.apply { Audit.Mutate.mkind = k; site = n } ast
               = None))
          Audit.Mutate.all_kinds);
    tc "drop-init removes the declaration's initializer" (fun () ->
        let ast = Tinyc.Parser.parse_program mutate_src in
        match
          Audit.Mutate.apply { Audit.Mutate.mkind = Audit.Mutate.Drop_init; site = 0 } ast
        with
        | None -> Alcotest.fail "site 0 must exist"
        | Some (ast', _) ->
          check_bool "program changed" true (ast' <> ast);
          check_bool "initializer gone (program shrank)" true
            (String.length (Tinyc.Pretty.program_to_string ast')
            < String.length (Tinyc.Pretty.program_to_string ast)));
    tc "random mutation is deterministic in the seed" (fun () ->
        let ast = Tinyc.Parser.parse_program mutate_src in
        let draw () =
          match Audit.Mutate.random (Workloads.Rng.create 42) ast with
          | None -> Alcotest.fail "program has candidates"
          | Some (ast', m, _) -> (Tinyc.Pretty.program_to_string ast', m)
        in
        let p1, m1 = draw () and p2, m2 = draw () in
        check_str "same mutation" (Audit.Mutate.to_string m1)
          (Audit.Mutate.to_string m2);
        check_str "same program" p1 p2);
  ]

(* ---- incident artifacts ------------------------------------------------ *)

let sample_incident ?(seed = 197) ?reduced () =
  Audit.Incident.make ~kind:Audit.Incident.Soundness_miss ~variant:"Usher_TL"
    ~seed ~mutation:"drop-init@3 (drop init of x)"
    ~functions:[ "ppmatch_12"; "helper" ] ~labels:[ 7; 42 ]
    ~knobs:"semi_strong=true quarantined=0"
    ~source:"int main() { int u; print(u); return 0; }\n" ?reduced ()

let incident_tests =
  [
    tc "incident round trip (with reduced repro)" (fun () ->
        let t = sample_incident ~reduced:"int main() { int u; print(u); }" () in
        match Audit.Incident.of_string (Audit.Incident.to_string t) with
        | Error e -> Alcotest.fail e
        | Ok t' -> check_bool "structural equality" true (t = t'));
    tc "incident round trip (no reduced repro)" (fun () ->
        let t = sample_incident () in
        match Audit.Incident.of_string (Audit.Incident.to_string t) with
        | Error e -> Alcotest.fail e
        | Ok t' -> check_bool "structural equality" true (t = t'));
    tc "a corrupted artifact is rejected by its checksum" (fun () ->
        let s = Audit.Incident.to_string (sample_incident ()) in
        (* Flip one byte inside the payload (past magic + checksum lines). *)
        let b = Bytes.of_string s in
        let i = String.length s - 10 in
        Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
        (match Audit.Incident.of_string (Bytes.to_string b) with
        | Ok _ -> Alcotest.fail "corrupted artifact accepted"
        | Error e ->
          check_bool "mentions the checksum" true
            (String.length e >= 8 && String.sub e 0 8 = "checksum"));
        (* Truncation is also rejected. *)
        match
          Audit.Incident.of_string (String.sub s 0 (String.length s - 5))
        with
        | Ok _ -> Alcotest.fail "truncated artifact accepted"
        | Error _ -> ());
    tc "save / load_dir separates good artifacts from corrupted ones" (fun () ->
        let dir = scratch_dir () in
        let t1 = sample_incident () in
        let t2 = sample_incident ~seed:198 ~reduced:"int main() { return 0; }" () in
        let p1 = Audit.Incident.save ~dir t1 in
        ignore (Audit.Incident.save ~dir t2);
        let ok, bad = Audit.Incident.load_dir dir in
        check_int "both load" 2 (List.length ok);
        check_int "none corrupted" 0 (List.length bad);
        (* Corrupt the first file on disk. *)
        let oc = open_out_bin p1 in
        output_string oc "usher-incident 1\nchecksum 0\ngarbage";
        close_out oc;
        let ok, bad = Audit.Incident.load_dir dir in
        check_int "one loads" 1 (List.length ok);
        check_int "one rejected" 1 (List.length bad));
  ]

(* ---- quarantine list --------------------------------------------------- *)

let undef_src =
  "int vuln_f(int d) { int v; int s = 0; if (v > d) { s = 1; } else { s = 2; } \
   return s; }\n\
   int main() { int r = vuln_f(7); print(r); return 0; }"

(* Fresh scratch directory, removed afterwards. *)
let with_tmpdir (f : string -> 'a) : 'a =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "usher-quarantine-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Audit.Incident.ensure_dir dir;
  Fun.protect
    ~finally:(fun () ->
      match Sys.readdir dir with
      | entries ->
        Array.iter
          (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          entries;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    (fun () -> f dir)

(* quarantine.list under concurrent writers *)

let quarantine_hammer () =
  with_tmpdir @@ fun dir ->
  let domains = 4 and per = 25 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore
                (Audit.Quarantine.add dir
                   [
                     {
                       Audit.Quarantine.qfunc = Printf.sprintf "fn_%d_%d" d i;
                       incident = Printf.sprintf "inc-%d-%d" d i;
                     };
                   ])
            done))
  in
  List.iter Domain.join workers;
  let entries = Audit.Quarantine.load dir in
  Alcotest.(check int) "no entry lost under 4 concurrent writers"
    (domains * per) (List.length entries);
  let uniq =
    List.sort_uniq compare
      (List.map (fun e -> e.Audit.Quarantine.qfunc) entries)
  in
  Alcotest.(check int) "no duplicates" (domains * per) (List.length uniq);
  (* no stray temp files left behind *)
  let strays =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           not
             (List.mem f [ "quarantine.list"; "quarantine.lock" ]))
  in
  Alcotest.(check (list string)) "only the list and its lock remain" [] strays

let quarantine_tests =
  [
    tc "missing quarantine list loads as empty" (fun () ->
        check_int "empty" 0
          (List.length (Audit.Quarantine.load (scratch_dir ()))));
    tc "add merges first-incident-per-function and persists" (fun () ->
        let dir = scratch_dir () in
        let e f i = { Audit.Quarantine.qfunc = f; incident = i } in
        let fresh = Audit.Quarantine.add dir [ e "f" "aaa"; e "g" "bbb" ] in
        check_int "both fresh" 2 (List.length fresh);
        let fresh = Audit.Quarantine.add dir [ e "f" "ccc"; e "h" "ddd" ] in
        check_int "only h is new" 1 (List.length fresh);
        let entries = Audit.Quarantine.load dir in
        check_int "three persisted" 3 (List.length entries);
        check_bool "f keeps its first incident" true
          (List.exists
             (fun (x : Audit.Quarantine.entry) ->
               x.qfunc = "f" && x.incident = "aaa")
             entries);
        (* apply threads entries into the knobs the pipeline reads. *)
        let knobs =
          Audit.Quarantine.apply_dir dir Usher.Config.default_knobs
        in
        check_int "knobs carry all entries" 3
          (List.length knobs.Usher.Config.quarantine));
    tc "pipeline distrusts quarantined functions and records the event"
      (fun () ->
        let knobs =
          Audit.Quarantine.apply
            [ { Audit.Quarantine.qfunc = "vuln_f"; incident = "abc123" } ]
            Usher.Config.default_knobs
        in
        let prog, a = analyze ~knobs undef_src in
        check_bool "vuln_f distrusted" true
          (List.mem "vuln_f" (Usher.Pipeline.distrusted_functions a));
        check_bool "quarantine event recorded" true
          (List.exists
             (fun (e : Usher.Degrade.event) ->
               e.kind = Usher.Degrade.Quarantined "abc123"
               && e.func = Some "vuln_f")
             !(a.events));
        (* Quarantine must not break soundness: every variant still covers
           the ground-truth use. *)
        let native = Runtime.Interp.run_native prog in
        check_bool "has a gt use" true (Hashtbl.length native.gt_uses > 0);
        List.iter
          (fun v ->
            let plan, _ = Usher.Pipeline.plan_for a v in
            let o = Runtime.Interp.run_plan prog plan in
            Hashtbl.iter
              (fun l () ->
                check_bool
                  (Printf.sprintf "%s covers l%d" (Usher.Config.variant_name v) l)
                  true
                  (Usher.Experiment.covered prog o.detections l))
              native.gt_uses)
          Usher.Config.all_variants);
    tc "4-domain writer hammer" quarantine_hammer;
  ]

(* ---- the differential oracle ------------------------------------------- *)

let clean_src =
  "int add(int a, int b) { return a + b; }\n\
   int main() { int s = 0; int i; for (i = 0; i < 5; i = i + 1) { s = add(s, i); } \
   print(s); return 0; }"

(* A shadow store through [print]'s integer operand in main, put into one
   lane's plan: the program never dereferences that integer, so only the
   lane's instrumentation traps. *)
let trap_in_lane (p : Usher.Experiment.prepared) (v : Usher.Config.variant) =
  let site = ref None in
  Ir.Prog.iter_instrs
    (fun (f : Ir.Types.func) _ (i : Ir.Types.instr) ->
      match i.kind with
      | Ir.Types.Output (Ir.Types.Var x) when f.fname = "main" && !site = None ->
        site := Some (i.lbl, x)
      | _ -> ())
    p.analysis.prog;
  let lbl, x = Option.get !site in
  let lane = List.find (fun (l : Usher.Experiment.lane) -> l.lvariant = v) p.lanes in
  Instr.Item.add lane.lplan lbl Instr.Item.Before
    (Instr.Item.Set_mem (x, Instr.Item.Mconst true))

(* Delete every check of one lane's plan: a hole the oracle must report
   as misses. *)
let drop_checks (p : Usher.Experiment.prepared) (v : Usher.Config.variant) =
  let lane = List.find (fun (l : Usher.Experiment.lane) -> l.lvariant = v) p.lanes in
  let items = lane.lplan.Instr.Item.items in
  Array.iteri
    (fun l its ->
      items.(l) <-
        List.filter
          (fun (it : Instr.Item.item) ->
            match it.act with Instr.Item.Check _ -> false | _ -> true)
          its)
    items

let oracle_tests =
  [
    tc "a clean program has no divergences" (fun () ->
        let r = Audit.Oracle.check clean_src in
        check_int "no divergences" 0 (List.length r.divergences);
        check_bool "no soundness divergence" false
          (Audit.Oracle.has_soundness_divergence r));
    tc "a detected undefined use is not a divergence" (fun () ->
        let r = Audit.Oracle.check undef_src in
        check_bool "native sees the gt use" true
          (Hashtbl.length r.native.gt_uses > 0);
        check_int "no divergences" 0 (List.length r.divergences));
    tc "a seeded plan hole is reported as a soundness miss" (fun () ->
        let r = Audit.Oracle.check ~hole:"vuln_" undef_src in
        let misses = Audit.Oracle.soundness_misses r in
        check_bool "missed" true (misses <> []);
        check_bool "soundness divergence" true
          (Audit.Oracle.has_soundness_divergence r);
        List.iter
          (fun (m : Audit.Oracle.miss) ->
            check_bool "attributed to vuln_f" true (m.mfunc = Some "vuln_f");
            check_bool "MSan is unaffected" true
              (m.mvariant <> Usher.Config.Msan);
            check_bool "MSan covers the use" true m.baseline_covers)
          misses);
    tc "a trap only one plan hits is that variant's behavior divergence"
      (fun () ->
        let p = Usher.Experiment.prepare undef_src in
        trap_in_lane p Usher.Config.Usher_tl;
        drop_checks p Usher.Config.Usher_full;
        (* [judge] returns: the native run does not trap, so the
           subject is not skipped *)
        let r = Audit.Oracle.judge p in
        check_bool "native sees the gt use" true
          (Hashtbl.length r.native.gt_uses > 0);
        let behaviors, misses =
          List.partition_map
            (function
              | Audit.Oracle.Behavior b -> Left b.bvariant
              | Audit.Oracle.Miss m -> Right m
              | Audit.Oracle.Precision _ -> failwith "precision divergence")
            r.divergences
        in
        check_bool "exactly Usher_TL traps" true
          (behaviors = [ Usher.Config.Usher_tl ]);
        check_bool "the holed Usher lane still misses" true
          (misses <> []
          && List.for_all
               (fun (m : Audit.Oracle.miss) ->
                 m.mvariant = Usher.Config.Usher_full && m.baseline_covers)
               misses);
        check_bool "every other variant ran" true
          (List.map fst r.per_variant
          = List.filter
              (fun v -> v <> Usher.Config.Usher_tl)
              Usher.Config.all_variants);
        List.iter
          (fun (v, o) ->
            if v <> Usher.Config.Usher_full then
              check_bool
                (Usher.Config.variant_name v ^ ": covers the gt use")
                true
                (Usher.Experiment.escaped r.prog ~native:r.native o = []))
          r.per_variant);
    tc "the hole spares quarantined functions (the healing mechanism)"
      (fun () ->
        let knobs =
          Audit.Quarantine.apply
            [ { Audit.Quarantine.qfunc = "vuln_f"; incident = "abc123" } ]
            Usher.Config.default_knobs
        in
        let r = Audit.Oracle.check ~knobs ~hole:"vuln_" undef_src in
        check_int "healed: no divergences" 0 (List.length r.divergences));
  ]

(* ---- reduction preserves the divergence -------------------------------- *)

let reduce_tests =
  [
    tc "AST reduction shrinks while preserving the witnessed miss" (fun () ->
        (* Pad the witness program with bystander functions the reducer
           should delete wholesale. *)
        let padding =
          String.concat "\n"
            (List.init 6 (fun i ->
                 Printf.sprintf
                   "int pad%d(int a) { int x = %d; int y = x + a; return y * 2; }"
                   i i))
        in
        let src = padding ^ "\n" ^ undef_src in
        let ast = Tinyc.Parser.parse_program src in
        let pred p =
          match Tinyc.Pretty.program_to_string p with
          | s -> (
            match Audit.Oracle.check ~hole:"vuln_" s with
            | r ->
              List.exists
                (fun (m : Audit.Oracle.miss) -> m.mfunc = Some "vuln_f")
                (Audit.Oracle.soundness_misses r)
            | exception Diag.Error _ -> false
            | exception Runtime.Interp.Runtime_error _ -> false)
        in
        check_bool "pred holds initially" true (pred ast);
        let reduced = Audit.Reduce.program ~pred ast in
        check_bool "pred holds on the result" true (pred reduced);
        check_bool "strictly smaller" true
          (Audit.Reduce.size reduced < Audit.Reduce.size ast);
        (* All padding functions are gone; the witness survives. *)
        let s = Tinyc.Pretty.program_to_string reduced in
        check_bool "padding deleted" false
          (let has sub =
             let n = String.length sub and m = String.length s in
             let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
             go 0
           in
           has "pad0");
        check_bool "witness kept" true
          (let sub = "vuln_f" in
           let n = String.length sub and m = String.length s in
           let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
           go 0));
  ]

(* Small random programs for the reduction property (full workload
   sources make the fixpoint reduction too slow for a unit-test budget). *)
let gen_small_program st =
  let nf = 1 + Workloads.Rng.int st 4 in
  let buf = Buffer.create 256 in
  for i = 0 to nf - 1 do
    Printf.ksprintf (Buffer.add_string buf)
      "int f%d(int a) { int x = %d; int y; int z = a * %d; if (a > %d) { y = \
       x + z; } else { y = x - a; z = z + 1; } while (z > 90) { z = z - 7; } \
       return y + z; }\n"
      i (Workloads.Rng.int st 100) (1 + Workloads.Rng.int st 5)
      (Workloads.Rng.int st 10)
  done;
  Buffer.add_string buf "int main() { int s = 0;\n";
  for i = 0 to nf - 1 do
    Printf.ksprintf (Buffer.add_string buf) "  s = s + f%d(%d);\n" i
      (Workloads.Rng.int st 20)
  done;
  Buffer.add_string buf "  print(s); return 0; }\n";
  Buffer.contents buf

(* Reduction of random (mutated) programs terminates and preserves the
   predicate — here "the program still compiles and executes". *)
let reduce_prop seed =
  let st = Workloads.Rng.create seed in
  let ast = Tinyc.Parser.parse_program (gen_small_program st) in
  (* Mutate first so reduction sees fuzzed shapes too. *)
  let ast =
    match Audit.Mutate.random st ast with Some (a, _, _) -> a | None -> ast
  in
  let pred p =
    match outputs (Tinyc.Pretty.program_to_string p) with
    | _ -> true
    | exception Diag.Error _ -> false
    | exception Runtime.Interp.Runtime_error _ -> false
    | exception Runtime.Interp.Resource_exhausted _ -> false
  in
  let reduced = Audit.Reduce.program ~pred ast in
  pred reduced && Audit.Reduce.size reduced <= Audit.Reduce.size ast

(* ---- the audit loop end to end ----------------------------------------- *)

let audit_parser dir hole =
  Audit.Loop.run
    { Audit.Loop.default_config with dir; hole }
    ~profiles:[ Workloads.Spec2000.find "197.parser" ]
    ~scale:3 ~mutants:1

let loop_tests =
  [
    tc "stock corpus sample audits clean" (fun () ->
        let dir = scratch_dir () in
        let s = audit_parser dir None in
        check_int "no soundness incidents" 0 s.soundness_incidents;
        check_int "no precision incidents" 0 s.precision_incidents;
        check_int "nothing quarantined" 0 (List.length s.quarantined));
    tc "seeded miss: capture, reduce, quarantine, heal, persist" (fun () ->
        let dir = scratch_dir () in
        let s = audit_parser dir (Some "ppmatch") in
        check_bool "soundness incidents captured" true
          (s.soundness_incidents > 0);
        check_bool "ppmatch quarantined" true
          (List.exists
             (fun f ->
               String.length f >= 7 && String.sub f 0 7 = "ppmatch")
             s.quarantined);
        check_bool "every quarantine healed its miss" true
          (s.healed >= List.length s.quarantined);
        (* Reduction: every soundness incident carries a repro at most a
           quarter of the original program. *)
        List.iter
          (fun (i : Audit.Incident.t) ->
            if i.kind = Audit.Incident.Soundness_miss then begin
              match i.reduced with
              | None -> Alcotest.fail "soundness incident not reduced"
              | Some r ->
                check_bool "reduced to <= 25%" true
                  (String.length r * 4 <= String.length i.source)
            end)
          s.incidents;
        (* Artifacts round trip from disk. *)
        let ok, bad = Audit.Incident.load_dir dir in
        check_int "artifacts parse back" (List.length s.incidents)
          (List.length ok);
        check_int "no corrupted artifacts" 0 (List.length bad);
        (* Second run with the same hole: the persisted quarantine forces
           full instrumentation for the buggy function, so the hole no
           longer produces a miss. *)
        let s2 = audit_parser dir (Some "ppmatch") in
        check_int "quarantine persists across runs" 0 s2.soundness_incidents);
  ]

let suites =
  [
    ("audit.reduce", ddmin_tests @ reduce_tests);
    ("audit.pretty", pretty_tests);
    ("audit.mutate", mutate_tests);
    ("audit.incident", incident_tests);
    ("audit.quarantine", quarantine_tests);
    ("audit.oracle", oracle_tests);
    ("audit.loop", loop_tests);
    ( "audit.properties",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"ddmin recovers random witness sets"
             ~count:100
             (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000))
             ddmin_prop);
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make
             ~name:"AST reduction terminates and preserves its predicate"
             ~count:15
             (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000))
             reduce_prop);
      ] );
  ]
