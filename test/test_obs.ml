(* lib/obs: monotonic clock, metrics registry, span tracer — plus the
   regression guarantee that tracing is observationally inert (a traced
   pipeline run produces byte-identical analysis results) and the
   parallel_map fail-fast/backtrace/order contract. *)

open Helpers

let check_float = Alcotest.(check (float 1e-9))

(* ---------------------------------------------------------------- *)
(* Clock                                                             *)
(* ---------------------------------------------------------------- *)

let clock_tests =
  [
    tc "now_ns is monotonic" (fun () ->
        let prev = ref (Obs.Clock.now_ns ()) in
        for _ = 1 to 1000 do
          let t = Obs.Clock.now_ns () in
          check_bool "non-decreasing" true (t >= !prev);
          prev := t
        done);
    tc "elapsed_ns clamps at zero" (fun () ->
        let future = Obs.Clock.now_ns () + 1_000_000_000 in
        check_int "clamped" 0 (Obs.Clock.elapsed_ns future));
    tc "elapsed_s clamps at zero" (fun () ->
        check_bool "clamped" true (Obs.Clock.elapsed_s (Obs.Clock.now_s () +. 60.) = 0.));
    tc "span_s clamps negative spans" (fun () ->
        check_float "backwards" 0. (Obs.Clock.span_s ~t0:2.0 ~t1:1.0);
        check_float "forwards" 1.5 (Obs.Clock.span_s ~t0:0.5 ~t1:2.0));
    tc "now_s tracks now_ns" (fun () ->
        let ns = Obs.Clock.now_ns () in
        let s = Obs.Clock.now_s () in
        let dt = s -. (float_of_int ns *. 1e-9) in
        check_bool "within 1s" true (dt >= 0. && dt < 1.0));
    tc "thread_cpu_ns is monotonic" (fun () ->
        let prev = ref (Obs.Clock.thread_cpu_ns ()) in
        for _ = 1 to 1000 do
          let t = Obs.Clock.thread_cpu_ns () in
          check_bool "non-decreasing" true (t >= !prev);
          prev := t
        done);
    (* Table 1's analysis time sums the thread CPU that the analysis's
       own thunks measure, on the caller and, for a large program like
       this one, on its helper domain. A bystander domain burning CPU
       alongside (as under bench --jobs) is never charged: the process's
       CPU over the whole run covers the analysis, the bystander and the
       rest, so the analysis time fits in what is left once the
       bystander's own CPU is taken out. A process-wide clock would read
       the bystander's share too and overshoot by about the call's wall
       time. *)
    tc "analysis_time_s excludes other domains' CPU" (fun () ->
        let src =
          Workloads.Spec2000.source ~scale:5 (Workloads.Spec2000.find "176.gcc")
        in
        let prog = front src in
        let started = Atomic.make false and stop = Atomic.make false in
        let process0 = Sys.time () in
        let spinner =
          Domain.spawn (fun () ->
              let t0 = Obs.Clock.thread_cpu_ns () in
              Atomic.set started true;
              while not (Atomic.get stop) do
                Domain.cpu_relax ()
              done;
              Obs.Clock.thread_cpu_ns () - t0)
        in
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        let a =
          Fun.protect
            ~finally:(fun () -> Atomic.set stop true)
            (fun () -> Usher.Pipeline.analyze prog)
        in
        let spinner_s = float_of_int (Domain.join spinner) *. 1e-9 in
        let left_s = Sys.time () -. process0 -. spinner_s in
        check_bool
          (Printf.sprintf
             "analysis_time_s %.3f <= process CPU less the bystander's %.3f + 0.010"
             a.analysis_time_s left_s)
          true
          (a.analysis_time_s <= left_s +. 0.010));
    (* Table 1's memory column counts the words the analyzing domain
       allocates, so it is never 0 and does not depend on what other
       domains do meanwhile. *)
    tc "analysis_mem_mb is nonzero and the same at jobs 1 and 2" (fun () ->
        let mem jobs =
          Usher.Fork.parallel_map ~jobs
            (fun (p : Workloads.Profile.t) ->
              let prog = front (Workloads.Spec2000.source ~scale:5 p) in
              (p.pname, (Usher.Pipeline.analyze prog).analysis_mem_mb))
            Workloads.Spec2000.all
        in
        let seq = mem 1 in
        List.iter
          (fun (name, mb) ->
            check_bool (Printf.sprintf "%s memMB %.3f > 0" name mb) true
              (mb > 0.0))
          seq;
        Alcotest.(check (list (pair string (float 0.0))))
          "jobs 1 and jobs 2 agree" seq (mem 2));
  ]

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

let metrics_tests =
  [
    tc "counter find-or-register returns one cell" (fun () ->
        let a = Obs.Metrics.counter "test.m.shared" in
        let b = Obs.Metrics.counter "test.m.shared" in
        let v0 = Obs.Metrics.counter_value a in
        Obs.Metrics.incr a;
        Obs.Metrics.add b 2;
        check_int "merged" (v0 + 3) (Obs.Metrics.counter_value a));
    tc "snapshot is sorted by name" (fun () ->
        ignore (Obs.Metrics.counter "test.m.zzz");
        ignore (Obs.Metrics.counter "test.m.aaa");
        let names = List.map fst (Obs.Metrics.snapshot ()) in
        check_bool "sorted" true (names = List.sort compare names));
    tc "updates merge across domains" (fun () ->
        let c = Obs.Metrics.counter "test.m.domains" in
        let v0 = Obs.Metrics.counter_value c in
        let worker () =
          for _ = 1 to 1000 do
            Obs.Metrics.incr c
          done
        in
        let ds = List.init 3 (fun _ -> Domain.spawn worker) in
        worker ();
        List.iter Domain.join ds;
        check_int "counter total" (v0 + 4000) (Obs.Metrics.counter_value c);
        check_int "snapshot total" (v0 + 4000)
          (List.assoc "test.m.domains" (Obs.Metrics.snapshot ())));
    tc "reset zeroes values but keeps handles" (fun () ->
        let c = Obs.Metrics.counter "test.m.reset" in
        Obs.Metrics.add c 5;
        Obs.Metrics.reset ();
        check_int "zeroed" 0 (Obs.Metrics.counter_value c);
        Obs.Metrics.incr c;
        check_int "still live" 1 (Obs.Metrics.counter_value c));
    (* Counters count work, never time: what [--metrics] prints for one
       run is the same on every run. *)
    tc "a run's snapshot is the same run to run" (fun () ->
        let src =
          "int main() { int u; int s = 0; int i;\n\
           for (i = 0; i < 4; i = i + 1) { s = s + i; }\n\
           if (s > 2) { u = 1; } print(u); return 0; }"
        in
        let run () =
          Obs.Metrics.reset ();
          ignore (Usher.Experiment.run ~name:"m" ~check_soundness:false src);
          Obs.Metrics.snapshot ()
        in
        let first = run () in
        check_bool "the run counted work" true
          (List.assoc "interp.runs" first > 0);
        Alcotest.(check (list (pair string int))) "same snapshot" first (run ()));
  ]

(* ---------------------------------------------------------------- *)
(* Trace: span discipline and JSON                                   *)
(* ---------------------------------------------------------------- *)

(* Run [f] with tracing on; always stop and clear afterwards so the
   tracer never leaks into other suites. *)
let traced f =
  Obs.Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.clear ())
    f

(* Per-tid stack discipline: every 'E' closes the innermost open 'B' of
   the same name; at the end every stack is empty. *)
let balanced (evs : Obs.Trace.event list) : bool =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 7 in
  let ok = ref true in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let st = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | 'B' -> Hashtbl.replace stacks e.tid (e.name :: st)
      | 'E' -> (
        match st with
        | top :: rest when top = e.name -> Hashtbl.replace stacks e.tid rest
        | _ -> ok := false)
      | _ -> ())
    evs;
  Hashtbl.iter (fun _ st -> if st <> [] then ok := false) stacks;
  !ok

(* Minimal recursive-descent JSON validator: checks the whole string is
   one well-formed JSON value (strict strings, numbers, nesting). *)
let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let adv () = incr pos in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then adv () else fail () in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      adv ();
      skip_ws ()
    | _ -> ()
  in
  let lit w =
    String.iter (fun c -> if peek () = Some c then adv () else fail ()) w
  in
  let pstring () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> adv ()
      | Some '\\' -> (
        adv ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          adv ();
          go ()
        | Some 'u' ->
          adv ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> adv ()
            | _ -> fail ()
          done;
          go ()
        | _ -> fail ())
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ ->
        adv ();
        go ()
    in
    go ()
  in
  let digits () =
    match peek () with
    | Some ('0' .. '9') ->
      let rec go () =
        match peek () with
        | Some ('0' .. '9') ->
          adv ();
          go ()
        | _ -> ()
      in
      go ()
    | _ -> fail ()
  in
  let pnumber () =
    if peek () = Some '-' then adv ();
    digits ();
    if peek () = Some '.' then begin
      adv ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      adv ();
      (match peek () with Some ('+' | '-') -> adv () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> pstring ()
    | Some ('-' | '0' .. '9') -> pnumber ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> fail ()
  and comma_sep close each =
    skip_ws ();
    if peek () = Some close then adv ()
    else begin
      each ();
      let rec rest () =
        skip_ws ();
        match peek () with
        | Some ',' ->
          adv ();
          each ();
          rest ()
        | Some c when c = close -> adv ()
        | _ -> fail ()
      in
      rest ()
    end
  and arr () =
    expect '[';
    comma_sep ']' value
  and obj () =
    expect '{';
    comma_sep '}' (fun () ->
        skip_ws ();
        pstring ();
        skip_ws ();
        expect ':';
        value ())
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let trace_tests =
  [
    tc "disabled tracer records nothing" (fun () ->
        Obs.Trace.clear ();
        check_bool "off" false (Obs.Trace.enabled ());
        let r = Obs.Trace.with_span "t.noop" (fun () -> 41 + 1) in
        Obs.Trace.instant "t.noop.i";
        Obs.Trace.counter "t.noop.c" [ ("v", Obs.Trace.Int 1) ];
        check_int "transparent" 42 r;
        check_int "no events" 0 (List.length (Obs.Trace.events ())));
    tc "spans nest balanced" (fun () ->
        traced (fun () ->
            Obs.Trace.with_span "t.outer" (fun () ->
                Obs.Trace.with_span "t.inner" (fun () -> ());
                Obs.Trace.with_span "t.inner2" (fun () ->
                    Obs.Trace.instant "t.mark"));
            let evs = Obs.Trace.events () in
            let count ph =
              List.length (List.filter (fun (e : Obs.Trace.event) -> e.ph = ph) evs)
            in
            check_int "three begins" 3 (count 'B');
            check_int "three ends" 3 (count 'E');
            check_int "one instant" 1 (count 'i');
            check_bool "stack discipline" true (balanced evs)));
    tc "span closed when body raises" (fun () ->
        traced (fun () ->
            (try Obs.Trace.with_span "t.boom" (fun () -> failwith "boom")
             with Failure _ -> ());
            check_bool "balanced after raise" true (balanced (Obs.Trace.events ()))));
    tc "events are sorted by timestamp" (fun () ->
        traced (fun () ->
            for i = 0 to 9 do
              Obs.Trace.with_span (Printf.sprintf "t.s%d" i) (fun () -> ())
            done;
            let ts =
              List.map (fun (e : Obs.Trace.event) -> e.ts_ns) (Obs.Trace.events ())
            in
            check_bool "sorted" true (ts = List.sort compare ts)));
    tc "trace JSON is valid, args and escapes included" (fun () ->
        traced (fun () ->
            Obs.Trace.with_span ~cat:"test"
              ~args:
                [
                  ("s", Obs.Trace.Str "quote\" slash\\ newline\n tab\t ctrl\x01");
                  ("i", Obs.Trace.Int (-42));
                  ("f", Obs.Trace.Float 2.5);
                ]
              "t.json" (fun () -> ());
            let s = Obs.Trace.to_json_string () in
            check_bool "valid JSON" true (json_valid s);
            check_bool "has traceEvents" true
              (String.length s > 20 && String.sub s 0 16 = "{\"traceEvents\":[")));
    tc "write emits a parseable file" (fun () ->
        traced (fun () ->
            Obs.Trace.with_span "t.file" (fun () -> Obs.Trace.instant "t.file.i");
            let path = Filename.temp_file "usher_trace" ".json" in
            Fun.protect
              ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
              (fun () ->
                Obs.Trace.write path;
                let ic = open_in_bin path in
                let len = in_channel_length ic in
                let s = really_input_string ic len in
                close_in ic;
                check_bool "file is valid JSON" true (json_valid s))));
    tc "multi-domain spans stay balanced per tid" (fun () ->
        traced (fun () ->
            let worker () =
              for i = 0 to 20 do
                Obs.Trace.with_span (Printf.sprintf "t.w%d" i) (fun () ->
                    Obs.Trace.with_span "t.wi" (fun () -> ()))
              done
            in
            let ds = List.init 3 (fun _ -> Domain.spawn worker) in
            worker ();
            List.iter Domain.join ds;
            let evs = Obs.Trace.events () in
            let tids =
              List.sort_uniq compare
                (List.map (fun (e : Obs.Trace.event) -> e.tid) evs)
            in
            check_bool "several domains recorded" true (List.length tids >= 2);
            check_bool "balanced everywhere" true (balanced evs);
            check_bool "whole log serializes" true
              (json_valid (Obs.Trace.to_json_string ()))));
  ]

let qcheck_nesting =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"random span trees stay balanced" arb
       (fun seed ->
         let st = Random.State.make [| seed |] in
         traced (fun () ->
             let rec grow depth =
               if depth < 5 && Random.State.int st 3 > 0 then
                 Obs.Trace.with_span
                   (Printf.sprintf "t.q%d" (Random.State.int st 8))
                   (fun () ->
                     for _ = 1 to Random.State.int st 3 do
                       grow (depth + 1)
                     done;
                     if Random.State.bool st then Obs.Trace.instant "t.qi")
             in
             for _ = 1 to 10 do
               grow 0
             done;
             let evs = Obs.Trace.events () in
             balanced evs && json_valid (Obs.Trace.to_json_string ()))))

(* ---------------------------------------------------------------- *)
(* Tracing is observationally inert on the real pipeline             *)
(* ---------------------------------------------------------------- *)

let regression_src =
  "int helper(int x) { int u; if (x > 3) { u = 1; } return u + x; }\n\
   int main() { int i; int s = 0;\n\
   for (i = 0; i < 8; i = i + 1) { s = s + helper(i); }\n\
   print(s); return 0; }"

(* Everything deterministic about an experiment: the Table 1 statistics
   minus the wall-clock fields, plus per-variant outcomes. *)
let fingerprint (e : Usher.Experiment.t) =
  let t1 = { e.table1 with analysis_time_s = 0.; analysis_mem_mb = 0. } in
  let per_variant =
    List.map
      (fun (r : Usher.Experiment.variant_result) ->
        ( Usher.Config.variant_name r.variant,
          r.static_stats,
          r.dynamic_shadow_ops,
          List.sort compare r.detections,
          r.compressed_away ))
      e.results
  in
  (t1, e.native_outputs, List.sort compare e.gt_uses, per_variant)

let regression_tests =
  [
    tc "traced experiment == untraced experiment" (fun () ->
        (* check_soundness off: the helper's undef use is input-dependent *)
        let plain =
          Usher.Experiment.run ~name:"reg" ~check_soundness:false regression_src
        in
        let traced_run =
          traced (fun () ->
              Usher.Experiment.run ~name:"reg" ~check_soundness:false
                regression_src)
        in
        check_bool "identical analysis + dynamic results" true
          (fingerprint plain = fingerprint traced_run));
    tc "traced pipeline emits a span per phase" (fun () ->
        traced (fun () ->
            let e =
              Usher.Experiment.run ~name:"reg" ~check_soundness:false
                regression_src
            in
            let evs = Obs.Trace.events () in
            let has name =
              List.exists
                (fun (ev : Obs.Trace.event) -> ev.ph = 'B' && ev.name = name)
                evs
            in
            check_bool "experiment span" true (has "experiment.reg");
            check_bool "frontend span" true (has "phase.frontend");
            check_bool "analyze span" true (has "pipeline.analyze");
            List.iter
              (fun (phase, _) ->
                check_bool ("phase span: " ^ phase) true (has ("phase." ^ phase)))
              e.analysis.phase_times_s;
            check_bool "trace serializes" true
              (json_valid (Obs.Trace.to_json_string ()))));
    tc "frontend passes are disjoint child spans of phase.frontend" (fun () ->
        traced (fun () ->
            ignore (Usher.Pipeline.front ~level:Optim.Pipeline.O2 regression_src);
            let evs = Obs.Trace.events () in
            let ts ph name =
              match
                List.find_opt
                  (fun (ev : Obs.Trace.event) -> ev.ph = ph && ev.name = name)
                  evs
              with
              | Some ev -> ev.ts_ns
              | None -> Alcotest.failf "no '%c' event for %s" ph name
            in
            let span name = (ts 'B' name, ts 'E' name) in
            let f0, f1 = span "phase.frontend" in
            let children =
              List.map span [ "frontend.parse"; "frontend.lower"; "frontend.optimize" ]
            in
            List.iter
              (fun (b, e) -> check_bool "inside phase.frontend" true (f0 <= b && e <= f1))
              children;
            let rec disjoint = function
              | (_, e) :: ((b, _) :: _ as rest) -> e <= b && disjoint rest
              | _ -> true
            in
            check_bool "in order, not overlapping" true (disjoint children)));
    tc "optimizer passes are child spans of frontend.optimize" (fun () ->
        traced (fun () ->
            ignore (Usher.Pipeline.front ~level:Optim.Pipeline.O2 regression_src);
            let spans = ref [] and stack = ref [] in
            List.iter
              (fun (ev : Obs.Trace.event) ->
                match ev.ph with
                | 'B' ->
                  spans := (ev.name, List.map fst !stack) :: !spans;
                  stack := (ev.name, ()) :: !stack
                | 'E' -> stack := List.tl !stack
                | _ -> ())
              (Obs.Trace.events ());
            (* The spans whose innermost enclosing span is [parent]. *)
            let children parent =
              List.filter_map
                (fun (name, parents) ->
                  match parents with
                  | p :: _ when p = parent -> Some name
                  | _ -> None)
                (List.rev !spans)
            in
            Alcotest.(check (list string)) "passes, in order"
              [ "optim.inline"; "optim.simplify_cfg"; "optim.mem2reg"; "optim.scalar";
                "optim.licm"; "optim.scalar"; "ir.verify_ssa" ]
              (children "frontend.optimize");
            let round = [ "optim.constprop"; "optim.copyprop"; "optim.cse"; "optim.dce" ] in
            Alcotest.(check (list string)) "scalar passes, in order, in optim.scalar"
              (round @ round) (children "optim.scalar")));
    tc "phase times are non-negative" (fun () ->
        let e =
          Usher.Experiment.run ~name:"reg" ~check_soundness:false regression_src
        in
        List.iter
          (fun (phase, dt) ->
            check_bool ("phase >= 0: " ^ phase) true (dt >= 0.))
          e.analysis.phase_times_s);
  ]

(* ---------------------------------------------------------------- *)
(* parallel_map: order, exceptions, fail-fast                        *)
(* ---------------------------------------------------------------- *)

exception Worker_boom of int

let parallel_tests =
  [
    tc "preserves input order" (fun () ->
        let xs = List.init 100 Fun.id in
        check_ints "squares in order"
          (List.map (fun x -> x * x) xs)
          (Usher.Fork.parallel_map ~jobs:4 (fun x -> x * x) xs));
    tc "jobs=1 degenerates to List.map" (fun () ->
        check_ints "identity" [ 2; 4; 6 ]
          (Usher.Fork.parallel_map ~jobs:1 (fun x -> 2 * x) [ 1; 2; 3 ]));
    tc "worker exception propagates to the caller" (fun () ->
        check_bool "original exception" true
          (try
             ignore
               (Usher.Fork.parallel_map ~jobs:4
                  (fun x -> if x = 17 then raise (Worker_boom x) else x)
                  (List.init 64 Fun.id));
             false
           with Worker_boom 17 -> true));
    tc "failure is fail-fast" (fun () ->
        let executed = Atomic.make 0 in
        let n = 50_000 in
        (try
           ignore
             (Usher.Fork.parallel_map ~jobs:2
                (fun x ->
                  if x = 0 then failwith "early"
                  else begin
                    Atomic.incr executed;
                    x
                  end)
                (List.init n Fun.id))
         with Failure _ -> ());
        check_bool "stopped handing out work" true (Atomic.get executed < n - 1));
    tc "failure carries the worker backtrace" (fun () ->
        Printexc.record_backtrace true;
        let deep () = failwith "deep worker failure" in
        (try
           ignore
             (Usher.Fork.parallel_map ~jobs:2
                (fun x -> if x = 1 then deep () else x)
                [ 0; 1; 2; 3 ])
         with Failure _ ->
           (* the re-raise used raise_with_backtrace, so the recorded
              backtrace is the worker's, not the join site's *)
           ());
        check_bool "survived" true true);
  ]

let suites =
  [
    ("obs.clock", clock_tests);
    ("obs.metrics", metrics_tests);
    ("obs.trace", trace_tests @ [ qcheck_nesting ]);
    ("obs.inert", regression_tests);
    ("obs.parallel_map", parallel_tests);
  ]
