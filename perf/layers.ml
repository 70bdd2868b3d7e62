(* The traced run: [Usher.Experiment.run] taken apart into the public call
   of each layer, in exactly the order and with exactly the arguments the
   default-knob path uses ([Pipeline.front_guarded], [Pipeline.analyze],
   [Pipeline.plan_for], [Experiment.run]). Every call is wrapped in a span
   recorded here, from the outside: the program itself runs with
   [Obs.Trace] off. The equivalence gate (perf/main.ml) checks that this
   decomposition still computes what [Experiment.run] computes. *)

(* Timed layer calls, in pipeline order. Each gives the per-layer metrics
   [C_s] (busy seconds) and [C_mw] (millions of words allocated). *)
let calls =
  [
    "tinyc.parse"; "tinyc.lower";
    "optim.inline"; "optim.simplify_cfg"; "optim.mem2reg"; "optim.scalar";
    "optim.licm"; "ir.verify_ssa";
    "analysis.andersen"; "analysis.callgraph"; "analysis.modref";
    "memssa.build";
    "vfg.build"; "vfg.build_tl"; "vfg.resolve"; "vfg.resolve_tl"; "vfg.opt2";
    "usher.stats"; "usher.covered";
    "instr.full"; "instr.guided"; "instr.fold_constants"; "instr.compress";
    "instr.stats";
    "runtime.compile"; "runtime.exec_native"; "runtime.exec_instr";
  ]

(* Work counts, summed over programs. *)
let counts =
  [
    "ir.instrs"; "optim.inlined_calls"; "optim.promoted";
    "analysis.solve_iterations";
    "vfg.nodes"; "vfg.edges"; "vfg.criticals"; "vfg.states_explored";
    "vfg.opt2_redirected";
    "instr.compress_removed";
    "runtime.steps"; "runtime.shadow_ops";
  ]

type span = {
  name : string;  (** layer call, program id, or workload name *)
  cat : string;   (** "layer", "program" or "workload" *)
  prog : int;     (** program index; -1 for the workload span *)
  t0 : int;       (** [Obs.Clock] ns *)
  t1 : int;
  words : float;  (** minor-heap words allocated inside the span *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  work : (string, int) Hashtbl.t;
}

let create () = { spans = []; work = Hashtbl.create 16 }

(* Words allocated on the minor heap, which every block of at most 256
   words goes through; larger blocks go straight to the major heap and are
   not counted. [Gc.counters]' minor + major - promoted is no substitute:
   it moves with the promotions of whichever minor collection falls inside
   a span, and charged the parser of each gen-small program ten times the
   words it allocates. *)
let allocated () = Gc.minor_words ()

(* The span is recorded even when [f] raises, so spans stay balanced on a
   failing program. *)
let span tr ~cat ~prog name f =
  let w0 = allocated () in
  let t0 = Obs.Clock.now_ns () in
  let finish () =
    let t1 = Obs.Clock.now_ns () in
    let words = allocated () -. w0 in
    tr.spans <- { name; cat; prog; t0; t1; words } :: tr.spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let add tr name n =
  Hashtbl.replace tr.work name
    (n + Option.value ~default:0 (Hashtbl.find_opt tr.work name))

(* Mirrors [Experiment.run ~name ~level src] with the default knobs, the
   interpreter engine and the soundness check on. *)
let run_experiment tr ~index (p : Workload.program) : Usher.Experiment.t =
  span tr ~cat:"program" ~prog:index p.id @@ fun () ->
  let call name f = span tr ~cat:"layer" ~prog:index name f in
  let knobs = Usher.Config.default_knobs in
  let level = p.level in
  (* Pipeline.front_guarded *)
  let ast = call "tinyc.parse" (fun () -> Tinyc.Parser.parse_program p.src) in
  let prog = call "tinyc.lower" (fun () -> Tinyc.Lower.lower_program ast) in
  let inl = call "optim.inline" (fun () -> Optim.Inline.run prog) in
  call "optim.simplify_cfg" (fun () -> Optim.Simplify_cfg.run prog);
  let m2r = call "optim.mem2reg" (fun () -> Optim.Mem2reg.run prog) in
  let scalar () =
    ignore (call "optim.scalar" (fun () -> Optim.Pipeline.scalar_round prog))
  in
  (match level with
  | Optim.Pipeline.O0_IM -> ()
  | O1 -> scalar ()
  | O2 ->
    scalar ();
    ignore (call "optim.licm" (fun () -> Optim.Licm.run prog));
    scalar ());
  call "ir.verify_ssa" (fun () -> Ir.Verify.check_ssa prog);
  add tr "optim.inlined_calls" inl.inlined_calls;
  add tr "optim.promoted" m2r.promoted;
  (* Pipeline.analyze *)
  let pa =
    call "analysis.andersen" (fun () ->
        Analysis.Andersen.run
          ~config:
            {
              Analysis.Andersen.field_sensitive = knobs.field_sensitive;
              heap_cloning = knobs.heap_cloning;
              small_array_fields = knobs.small_array_fields;
            }
          prog)
  in
  let cg = call "analysis.callgraph" (fun () -> Analysis.Callgraph.build prog pa) in
  let mr = call "analysis.modref" (fun () -> Analysis.Modref.compute prog pa cg) in
  let mssa = call "memssa.build" (fun () -> Memssa.build prog pa cg mr) in
  let build_vfg name track_memory =
    call name (fun () ->
        Vfg.Build.build
          ~config:{ Vfg.Build.track_memory; semi_strong = knobs.semi_strong }
          prog pa cg mr mssa)
  in
  let vfg = build_vfg "vfg.build" true in
  let vfg_tl = build_vfg "vfg.build_tl" false in
  let context_sensitive = knobs.context_sensitive in
  let gamma =
    call "vfg.resolve" (fun () ->
        Vfg.Resolve.resolve ~context_sensitive vfg.Vfg.Build.graph)
  in
  let gamma_tl =
    call "vfg.resolve_tl" (fun () ->
        Vfg.Resolve.resolve ~context_sensitive vfg_tl.Vfg.Build.graph)
  in
  let opt2 = call "vfg.opt2" (fun () -> Vfg.Opt2.run ~context_sensitive vfg) in
  let analysis : Usher.Pipeline.analysis =
    {
      prog; pa; cg; mr; mssa; vfg; gamma; vfg_tl; gamma_tl; opt2;
      summary_stats = None;
      analysis_time_s = 0.0;
      analysis_mem_mb = 0.0;
      phase_times_s = [];
      knobs;
      distrusted = Hashtbl.create 4;
      degraded_all = false;
      events = ref [];
      verify_reports = [];
    }
  in
  (* Experiment.run *)
  let table1 =
    call "usher.stats" (fun () -> Usher.Analysis_stats.compute ~src:p.src analysis)
  in
  let exec name plan =
    let cp = call "runtime.compile" (fun () -> Runtime.Interp.compile prog plan) in
    let o = call name (fun () -> Runtime.Interp.run cp) in
    add tr "runtime.steps" o.steps;
    add tr "runtime.shadow_ops" (Runtime.Counters.shadow_ops o.counters);
    o
  in
  let native = exec "runtime.exec_native" (Instr.Item.empty_plan prog) in
  (* Pipeline.plan_for *)
  let guided ~opt1 bld g =
    (call "instr.guided" (fun () ->
         Instr.Guided.build ~options:{ Instr.Guided.opt1 } bld g))
      .plan
  in
  let plan_for = function
    | Usher.Config.Msan -> call "instr.full" (fun () -> Instr.Full.build prog)
    | Usher_tl -> guided ~opt1:false vfg_tl gamma_tl
    | Usher_tl_at -> guided ~opt1:false vfg gamma
    | Usher_opt1 -> guided ~opt1:true vfg gamma
    | Usher_full -> guided ~opt1:true vfg opt2.gamma
  in
  let unsound v what =
    raise
      (Usher.Experiment.Unsound
         (Printf.sprintf "%s/%s: %s" p.id (Usher.Config.variant_name v) what))
  in
  let results =
    List.map
      (fun v ->
        let plan = plan_for v in
        let compressed_away =
          if level <> Optim.Pipeline.O0_IM then
            call "instr.fold_constants" (fun () ->
                Instr.Compress.fold_constants plan)
            + call "instr.compress" (fun () -> Instr.Compress.run plan)
          else 0
        in
        let outcome = exec "runtime.exec_instr" plan in
        if outcome.outputs <> native.outputs then
          unsound v "instrumented run diverged from native";
        if level = Optim.Pipeline.O0_IM then
          call "usher.covered" (fun () ->
              Hashtbl.iter
                (fun lbl () ->
                  if not (Usher.Experiment.covered prog outcome.detections lbl)
                  then
                    unsound v
                      (Printf.sprintf "ground-truth undefined use at l%d not detected"
                         lbl))
                outcome.gt_uses);
        {
          Usher.Experiment.variant = v;
          static_stats = call "instr.stats" (fun () -> Instr.Item.stats_of plan);
          slowdown_pct =
            Runtime.Costmodel.slowdown_pct ~native:native.counters
              ~instrumented:outcome.counters ();
          dynamic_shadow_ops = Runtime.Counters.shadow_ops outcome.counters;
          detections = Hashtbl.fold (fun l () acc -> l :: acc) outcome.detections [];
          compressed_away;
        })
      Usher.Config.all_variants
  in
  {
    Usher.Experiment.name = p.id;
    level;
    analysis;
    table1;
    native_counters = native.counters;
    native_outputs = native.outputs;
    gt_uses = Hashtbl.fold (fun l () acc -> l :: acc) native.gt_uses [];
    results;
  }

(* [run_experiment], plus the work counts that can be read off its result;
   reading them outside the program span keeps them out of its time. *)
let experiment tr ~index p : Usher.Experiment.t =
  let e = run_experiment tr ~index p in
  let a = e.analysis in
  add tr "ir.instrs" (Ir.Prog.size a.prog);
  add tr "analysis.solve_iterations" a.pa.solve_iterations;
  add tr "vfg.nodes" (Vfg.Graph.nnodes a.vfg.graph);
  add tr "vfg.edges" (Vfg.Graph.nedges a.vfg.graph);
  add tr "vfg.criticals" (List.length a.vfg.criticals);
  add tr "vfg.states_explored"
    (a.gamma.states_explored + a.gamma_tl.states_explored + a.opt2.gamma.states_explored);
  add tr "vfg.opt2_redirected" a.opt2.redirected;
  add tr "instr.compress_removed"
    (List.fold_left (fun n (r : Usher.Experiment.variant_result) -> n + r.compressed_away) 0 e.results);
  e

(* ---- reading the spans back ---- *)

let dur s = s.t1 - s.t0

(* Spans are balanced when there is one workload span, program spans
   lie inside it without overlapping, and each program's layer spans lie
   inside that program's span without overlapping. *)
let balanced (spans : span list) : bool =
  let inside outer s = s.t0 >= outer.t0 && s.t1 <= outer.t1 in
  let rec disjoint = function
    | a :: (b :: _ as rest) -> a.t1 <= b.t0 && disjoint rest
    | _ -> true
  in
  let disjoint l = disjoint (List.sort (fun a b -> compare a.t0 b.t0) l) in
  let of_cat c = List.filter (fun s -> s.cat = c) spans in
  let progs = Hashtbl.create 64 and layers = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace progs p.prog p) (of_cat "program");
  List.iter
    (fun l ->
      Hashtbl.replace layers l.prog
        (l :: Option.value ~default:[] (Hashtbl.find_opt layers l.prog)))
    (of_cat "layer");
  match of_cat "workload" with
  | [ w ] ->
    Hashtbl.length progs = List.length (of_cat "program")
    && List.for_all (inside w) (of_cat "program")
    && disjoint (of_cat "program")
    && Hashtbl.fold
         (fun prog ls ok ->
           ok
           &&
           match Hashtbl.find_opt progs prog with
           | Some p -> List.for_all (inside p) ls && disjoint ls
           | None -> false)
         layers true
  | _ -> false

(* Layer self time over traced program time, in percent. Layer spans are
   leaves, so their self time is their duration. *)
let coverage_pct (spans : span list) : float =
  let sum c = List.fold_left (fun a s -> if s.cat = c then a + dur s else a) 0 spans in
  let prog = sum "program" in
  if prog = 0 then 100.0 else 100.0 *. float_of_int (sum "layer") /. float_of_int prog

(* Per-call busy seconds and allocated millions of words, in [calls]
   order. *)
let per_call (spans : span list) : (string * float * float) list =
  List.map
    (fun c ->
      let ns, words =
        List.fold_left
          (fun (ns, w) s ->
            if s.cat = "layer" && s.name = c then (ns + dur s, w +. s.words)
            else (ns, w))
          (0, 0.0) spans
      in
      (c, float_of_int ns *. 1e-9, words /. 1e6))
    calls

let work tr name = Option.value ~default:0 (Hashtbl.find_opt tr.work name)

(* Chrome trace_event JSON: complete ("X") events on one thread, times in
   whole microseconds from the workload start. *)
let chrome_trace (spans : span list) ~(ids : int -> string) : Serve.Json.t =
  let origin = List.fold_left (fun a s -> min a s.t0) max_int spans in
  let us ns = Serve.Json.Num (float_of_int (ns / 1000)) in
  let workload =
    List.find_map (fun s -> if s.cat = "workload" then Some s.name else None) spans
  in
  let event s =
    let parent =
      match s.cat with
      | "layer" -> ids s.prog
      | "program" -> Option.value ~default:"" workload
      | _ -> ""
    in
    Serve.Json.Obj
      [
        ("name", Str s.name);
        ("cat", Str s.cat);
        ("ph", Str "X");
        ("ts", us (s.t0 - origin));
        ("dur", us (dur s));
        ("pid", Num 1.0);
        ("tid", Num 1.0);
        ( "args",
          Obj [ ("parent", Str parent); ("alloc_words", Num s.words) ] );
      ]
  in
  Serve.Json.Obj
    [
      ("traceEvents", Arr (List.rev_map event spans));
      ("displayTimeUnit", Str "ms");
    ]
