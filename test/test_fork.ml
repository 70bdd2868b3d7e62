(* Usher.Fork.both, and the overlapped pipeline it drives: a forked
   experiment must equal the same experiment run inline, event for event,
   on the clean path and on every fault path. *)

open Helpers

let m_forks = Obs.Metrics.counter "pipeline.forks"
let forks () = Obs.Metrics.counter_value m_forks

(* Run [f] with every other core taken by a spinner forked through
   [Fork.both], so [f] finds no free core. *)
let pinned f =
  let stop = Atomic.make false in
  let spin () =
    while not (Atomic.get stop) do
      Domain.cpu_relax ()
    done
  in
  let rec occupy n =
    if n = 0 then Fun.protect ~finally:(fun () -> Atomic.set stop true) f
    else fst (Usher.Fork.both (fun () -> occupy (n - 1)) spin)
  in
  occupy (Domain.recommended_domain_count () - 1)

exception First
exception Second

let raise_first () = raise First
let raise_second () = raise Second

(* The file of the innermost frame of the backtrace just caught. *)
let raised_in () =
  match Printexc.backtrace_slots (Printexc.get_raw_backtrace ()) with
  | None -> None
  | Some slots ->
    Array.to_list slots
    |> List.find_map Printexc.Slot.location
    |> Option.map (fun (l : Printexc.location) -> Filename.basename l.filename)

let both_tests =
  [
    tc "both returns both results" (fun () ->
        check_bool "pair" true (Usher.Fork.both (fun () -> 1) (fun () -> "b") = (1, "b")));
    tc "both runs inline when no core is free" (fun () ->
        let domains =
          pinned (fun () ->
              Usher.Fork.both (fun () -> Domain.self ()) (fun () -> Domain.self ()))
        in
        check_bool "one domain ran both thunks" true (fst domains = snd domains));
    tc "both forks when a core is free" (fun () ->
        let here = Domain.self () in
        let f_on, g_on =
          Usher.Fork.both (fun () -> Domain.self ()) (fun () -> Domain.self ())
        in
        check_bool "f on the caller" true (f_on = here);
        check_bool "g on a helper iff a core is free" true
          ((g_on <> here) = (Domain.recommended_domain_count () > 1)));
    tc "when both raise, the first thunk's exception wins with its backtrace"
      (fun () ->
        Printexc.record_backtrace true;
        let caught =
          match Usher.Fork.both raise_first raise_second with
          | _ -> None
          | exception First -> Some (raised_in ())
          | exception Second -> Some (Some "the second thunk's exception")
        in
        match caught with
        | None -> Alcotest.fail "nothing raised"
        | Some None -> () (* built without debug info: no slots to inspect *)
        | Some (Some file) -> Alcotest.(check string) "raised in" "test_fork.ml" file);
    tc "the second thunk's exception propagates with its backtrace" (fun () ->
        Printexc.record_backtrace true;
        match Usher.Fork.both (fun () -> ()) raise_second with
        | _ -> Alcotest.fail "nothing raised"
        | exception Second -> (
          match raised_in () with
          | None -> ()
          | Some file -> Alcotest.(check string) "raised in" "test_fork.ml" file));
  ]

(* 176.gcc at scale 5 has about 95k IR labels, above the overlap gate. *)
let gcc = lazy (Workloads.Spec2000.source ~scale:5 (Workloads.Spec2000.find "176.gcc"))

let plan_view (p : Instr.Item.plan) =
  ( p.items,
    List.sort compare (Hashtbl.fold (fun f acts acc -> (f, acts) :: acc) p.entry_items []),
    p.ret_slot )

let events evs = List.map Usher.Degrade.to_string evs

let analysis_view (a : Usher.Pipeline.analysis) =
  ( events !(a.events),
    Usher.Pipeline.distrusted_functions a,
    (a.gamma, a.gamma_tl, a.opt2),
    a.degraded_all,
    List.map (fun (r : Verify.Report.t) -> (r.checker, Verify.Report.nviolations r))
      a.verify_reports,
    List.map fst a.phase_times_s )

(* Everything deterministic that one [Experiment.prepare] and the
   [Experiment.execute] on it produce (Table 1 without its times and
   memory), and how many forks they made. The analysis's events are the
   frontend's and the analysis's ([unplanned]) followed by the planning
   events. *)
let view knobs =
  let f0 = forks () in
  let p = Usher.Experiment.prepare ~name:"176.gcc" ~knobs (Lazy.force gcc) in
  let e = Usher.Experiment.execute p in
  let v =
    ( events p.unplanned,
      List.map
        (fun (l : Usher.Experiment.lane) -> (l.lvariant, plan_view l.lplan))
        p.lanes,
      analysis_view e.analysis,
      {
        e.table1 with
        analysis_time_s = 0.;
        analysis_mem_mb = 0.;
        verify_checkers = List.map (fun (c, _, n) -> (c, 0., n)) e.table1.verify_checkers;
      },
      List.map
        (fun (r : Usher.Experiment.variant_result) ->
          { r with detections = List.sort compare r.detections })
        e.results )
  in
  (v, forks () - f0)

let first_callee () =
  Ir.Prog.fold_funcs
    (fun acc (f : Ir.Types.func) -> if acc = "" && f.fname <> "main" then f.fname else acc)
    "" (front (Lazy.force gcc))

let fault ?func phase fkind = { Usher.Config.fphase = phase; ffunc = func; fkind }

let cases =
  let k = Usher.Config.default_knobs in
  let inject ?(verify = false) faults () = { k with Usher.Config.inject = faults; verify } in
  [
    ("clean", fun () -> k);
    ("--verify", fun () -> { k with verify = true });
    ( "vfg:FUNC=crash",
      fun () -> inject [ fault ~func:(first_callee ()) Diag.Vfg_build Usher.Config.Crash ] () );
    ("resolve=exhaust", inject [ fault Diag.Resolve Usher.Config.Exhaust ]);
    ("opt2=crash", inject [ fault Diag.Opt2 Usher.Config.Crash ]);
    ("instrument=crash", inject [ fault Diag.Instrument Usher.Config.Crash ]);
    ( "--verify vfg=drop-vfg-edge",
      inject ~verify:true
        [ fault Diag.Vfg_build (Usher.Config.Corrupt Usher.Config.Drop_vfg_edge) ] );
    ( "--verify resolve=gamma-flip",
      inject ~verify:true
        [ fault Diag.Resolve (Usher.Config.Corrupt Usher.Config.Gamma_flip) ] );
  ]

let equiv_tests =
  List.map
    (fun (name, knobs) ->
      tc ("forked == inline: " ^ name) (fun () ->
          let knobs = knobs () in
          let forked, nforked = view knobs in
          let inline, ninline = pinned (fun () -> view knobs) in
          (* a budget knob that never runs out keeps the pipeline off the
             branches altogether: today's sequential path *)
          let sequential, nsequential =
            view { knobs with Usher.Config.budget_ms = Some 3_600_000 }
          in
          (* the one preparation forks once when a core is free *)
          check_int "forks when a core is free"
            (if Domain.recommended_domain_count () > 1 then 1 else 0)
            nforked;
          check_int "no fork with every core taken" 0 ninline;
          check_int "no fork under a budget" 0 nsequential;
          check_bool "forked == inline: events, distrust, Γ, plans, Table 1, results"
            true (forked = inline);
          check_bool "forked == sequential" true (forked = sequential)))
    cases

let suites = [ ("fork.both", both_tests); ("fork.equiv", equiv_tests) ]
