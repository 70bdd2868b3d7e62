(* The sentinel's campaign loop.

   Every campaign is one loop over subjects: the corpus audit (workload-
   generated TinyC programs and AST-level mutants of them), generative
   fuzzing (Fuzz.run) and corpus promotion (Fuzz.promote). For every
   subject the loop checks the budget, runs the differential oracle once
   and, when the campaign audits, captures an incident artifact for every
   divergence, ddmin-reduces soundness misses to a small repro,
   quarantines the implicated functions, and verifies that the
   quarantined re-run covers the missed use again (the self-healing
   property: a soundness bug costs precision until fixed, never
   correctness). An optional distillation step comes last.

   The loop is time-boxed ([budget_ms]) so CI can run it as a smoke test,
   and fully deterministic in its subjects so any run replays. *)

type config = {
  seed : int;                           (* campaign seed *)
  budget_ms : int option;               (* wall-clock box for the whole loop *)
  dir : string;                         (* incident + quarantine directory *)
  hole : string option;                 (* test hook: seeded plan-hole prefix *)
  minimize : bool;                      (* ddmin-reduce soundness misses *)
  level : Optim.Pipeline.level;
  limits : Runtime.Interp.limits;
  knobs : Usher.Config.knobs;
  log : string -> unit;
}

let default_config =
  {
    seed = 1;
    budget_ms = None;
    dir = ".usher-audit";
    hole = None;
    minimize = true;
    level = Optim.Pipeline.O0_IM;
    limits =
      { Runtime.Interp.max_steps = 2_000_000; max_objects = 100_000;
        max_depth = 1_000 };
    knobs = Usher.Config.default_knobs;
    log = ignore;
  }

type subject = {
  name : string;                  (* what log lines call it *)
  seed : int;                     (* recorded in its incidents *)
  mutation : string;              (* "" unless it is an AST mutant *)
  src : (string, string) result;  (* the program, or why there is none *)
}

type mode = Audit of { feedback : bool } | Judge

type summary = {
  subjects : int;             (* subjects begun before the budget expired *)
  audited : int;              (* subjects the oracle accepted *)
  mutants_run : int;          (* of those, AST mutants *)
  skipped : int;              (* no program, compile error or native trap *)
  incidents : Incident.t list;        (* newly captured, in order *)
  soundness_incidents : int;  (* misses + behavior divergences *)
  precision_incidents : int;
  quarantined : string list;  (* functions newly quarantined *)
  healed : int;               (* misses covered again under quarantine *)
  distilled : int;            (* subjects the distillation step kept *)
  out_of_time : bool;         (* the budget expired before the subjects ended *)
  oracle_s : float;           (* summed oracle wall time, accepted subjects *)
  elapsed_s : float;
}

let knobs_summary (k : Usher.Config.knobs) : string =
  Printf.sprintf
    "semi_strong=%b context=%b field=%b cloning=%b quarantined=%d"
    k.Usher.Config.semi_strong k.context_sensitive k.field_sensitive
    k.heap_cloning
    (List.length k.quarantine)

(* Compile errors and native-run traps disqualify a subject (mutants
   routinely produce wild pointers); anything else propagates. *)
let oracle_check cfg ~knobs (src : string) : (Oracle.report, string) result =
  match
    Oracle.check ~level:cfg.level ~knobs ~limits:cfg.limits ?hole:cfg.hole src
  with
  | r -> Ok r
  | exception Diag.Error d -> Error (Diag.to_string d)
  | exception Runtime.Interp.Runtime_error m -> Error ("native run: " ^ m)
  | exception Runtime.Interp.Resource_exhausted { what; limit } ->
    Error (Printf.sprintf "native run: %s limit %d" what limit)

(* Does [src] still witness a miss for [variant] (same implicated function
   when known)? The reduction predicate. *)
let still_misses cfg ~knobs ~(variant : Usher.Config.variant)
    ~(func : string option) (src : string) : bool =
  match oracle_check cfg ~knobs src with
  | Error _ -> false
  | Ok r ->
    List.exists
      (fun (m : Oracle.miss) ->
        m.mvariant = variant
        && (func = None || m.mfunc = func))
      (Oracle.soundness_misses r)

(* ddmin the witnessing program down to a small repro. *)
let minimize_miss cfg ~knobs ~variant ~func (src : string) : string option =
  match Tinyc.Parser.parse_program src with
  | exception Diag.Error _ -> None
  | ast ->
    let pred p =
      match Tinyc.Pretty.program_to_string p with
      | s -> still_misses cfg ~knobs ~variant ~func s
      | exception Invalid_argument _ -> false
    in
    if not (pred ast) then None
    else begin
      let reduced = Reduce.program ~pred ast in
      Some (Tinyc.Pretty.program_to_string reduced)
    end

(* Audit one already-checked subject from its oracle report; returns
   (incidents, quarantine entries, healed). *)
let audit_report cfg ~knobs ~(seed : int) ~(mutation : string) ~(src : string)
    (report : Oracle.report) : Incident.t list * Quarantine.entry list * int =
    let incidents = ref [] and entries = ref [] and healed = ref 0 in
    let knob_str = knobs_summary knobs in
    let capture ~kind ~variant ~functions ~labels ~reduced =
      let inc =
        Incident.make ~kind ~variant ~seed ~mutation ~functions ~labels
          ~knobs:knob_str ~source:src ?reduced ()
      in
      ignore (Incident.save ~dir:cfg.dir inc);
      incidents := inc :: !incidents;
      inc
    in
    (* Soundness misses: reduce, capture, quarantine, verify healing. *)
    let misses = Oracle.soundness_misses report in
    (* One incident per (variant, function): a buggy plan usually misses a
       cluster of labels in one function. *)
    let groups = Hashtbl.create 4 in
    List.iter
      (fun (m : Oracle.miss) ->
        let key = (m.mvariant, m.mfunc) in
        let prev = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (m :: prev))
      misses;
    (* Several variants usually share one buggy plan — cache the reduced
       repro per implicated function and revalidate it per variant (one
       oracle run) instead of re-reducing from scratch. *)
    let reduction_cache : (string option, string) Hashtbl.t =
      Hashtbl.create 4
    in
    let reduce_for ~variant ~func =
      if not cfg.minimize then None
      else
        match Hashtbl.find_opt reduction_cache func with
        | Some r when still_misses cfg ~knobs ~variant ~func r -> Some r
        | _ -> (
          match minimize_miss cfg ~knobs ~variant ~func src with
          | Some r ->
            Hashtbl.replace reduction_cache func r;
            Some r
          | None -> None)
    in
    Hashtbl.iter
      (fun (variant, func) (ms : Oracle.miss list) ->
        let labels = List.map (fun m -> m.Oracle.mlabel) ms |> List.sort compare in
        let reduced = reduce_for ~variant ~func in
        let functions = match func with Some f -> [ f ] | None -> [] in
        let inc =
          capture ~kind:Incident.Soundness_miss
            ~variant:(Usher.Config.variant_name variant) ~functions ~labels
            ~reduced
        in
        cfg.log
          (Printf.sprintf "incident %s: %s misses %d use(s)%s%s" inc.id
             (Usher.Config.variant_name variant) (List.length labels)
             (match func with Some f -> " in " ^ f | None -> "")
             (match reduced with
             | Some r ->
               Printf.sprintf " (reduced %d -> %d bytes)"
                 (String.length src) (String.length r)
             | None -> ""));
        (* Quarantine the implicated function and verify the re-run under
           quarantine covers the use again. *)
        match func with
        | None -> ()
        | Some f ->
          entries := { Quarantine.qfunc = f; incident = inc.id } :: !entries;
          let knobs' =
            Quarantine.apply [ { Quarantine.qfunc = f; incident = inc.id } ]
              knobs
          in
          let subject =
            match reduced with Some r -> r | None -> src
          in
          if not (still_misses cfg ~knobs:knobs' ~variant ~func:(Some f) subject)
          then begin
            incr healed;
            cfg.log
              (Printf.sprintf
                 "incident %s: quarantining %s heals the miss (full \
                  instrumentation covers the use)"
                 inc.id f)
          end
          else
            cfg.log
              (Printf.sprintf
                 "incident %s: quarantining %s does NOT heal the miss — \
                 runtime-level bug?" inc.id f))
      groups;
    (* Behavior divergences: capture (no function attribution). *)
    List.iter
      (function
        | Oracle.Behavior { bvariant; _ } ->
          ignore
            (capture ~kind:Incident.Behavior_divergence
               ~variant:(Usher.Config.variant_name bvariant)
               ~functions:[] ~labels:[] ~reduced:None)
        | Oracle.Precision { pvariant; _ } ->
          ignore
            (capture ~kind:Incident.Precision_regression
               ~variant:(Usher.Config.variant_name pvariant)
               ~functions:[] ~labels:[] ~reduced:None)
        | Oracle.Miss _ -> ())
      report.divergences;
    (List.rev !incidents, List.rev !entries, !healed)

let campaign (cfg : config) (mode : mode) ~refused
    ?(distil = fun _ _ _ -> false) (subjects : (unit -> subject) Seq.t) :
    summary =
  (* Monotonic clock: the time-box must not be stretched or blown by a
     wall-clock step. *)
  let t0 = Obs.Clock.now_s () in
  let deadline =
    Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) cfg.budget_ms
  in
  let out_of_time () =
    match deadline with Some d -> Obs.Clock.now_s () > d | None -> false
  in
  let knobs =
    ref
      (match mode with
      | Audit _ -> Quarantine.apply_dir cfg.dir cfg.knobs
      | Judge -> cfg.knobs)
  in
  let begun = ref 0 and audited = ref 0 and mutants_run = ref 0 in
  let skipped = ref 0 and distilled = ref 0 and oracle_s = ref 0.0 in
  let incidents = ref [] and quarantined = ref [] and healed = ref 0 in
  let audit (s : subject) src report feedback =
    let incs, entries, h =
      audit_report cfg ~knobs:!knobs ~seed:s.seed ~mutation:s.mutation ~src
        report
    in
    List.iter
      (fun (i : Incident.t) ->
        Obs.Trace.instant ~cat:"audit"
          ~args:
            [
              ("variant", Obs.Trace.Str i.variant);
              ("kind", Obs.Trace.Str (Incident.kind_name i.kind));
            ]
          ("incident." ^ i.id))
      incs;
    incidents := List.rev_append incs !incidents;
    healed := !healed + h;
    let fresh = Quarantine.add cfg.dir entries in
    List.iter
      (fun (e : Quarantine.entry) -> quarantined := e.qfunc :: !quarantined)
      fresh;
    if feedback then knobs := Quarantine.apply fresh !knobs
  in
  let visit (s : subject) =
    incr begun;
    let refuse e =
      incr skipped;
      cfg.log (refused s e)
    in
    let t = Obs.Clock.now_s () in
    match s.src with
    | Error e -> refuse e
    | Ok src -> (
      match oracle_check cfg ~knobs:!knobs src with
      | Error e -> refuse e
      | Ok report ->
        incr audited;
        if s.mutation <> "" then incr mutants_run;
        oracle_s := !oracle_s +. (Obs.Clock.now_s () -. t);
        (match mode with
        | Audit { feedback } -> audit s src report feedback
        | Judge -> ());
        if distil s src report then incr distilled)
  in
  (* The budget is checked before each subject is built, never after the
     last one. *)
  let rec go seq =
    match seq () with
    | Seq.Nil -> false
    | Seq.Cons (next, rest) ->
      out_of_time ()
      || begin
        let s = next () in
        Obs.Trace.with_span ~cat:"audit"
          ~args:[ ("subject", Obs.Trace.Str s.name) ]
          "audit.subject"
          (fun () -> visit s);
        go rest
      end
  in
  let out_of_time = go subjects in
  let incidents = List.rev !incidents in
  let n_sound =
    List.length
      (List.filter
         (fun (i : Incident.t) -> i.kind <> Incident.Precision_regression)
         incidents)
  in
  {
    subjects = !begun;
    audited = !audited;
    mutants_run = !mutants_run;
    skipped = !skipped;
    incidents;
    soundness_incidents = n_sound;
    precision_incidents = List.length incidents - n_sound;
    quarantined = List.rev !quarantined;
    healed = !healed;
    distilled = !distilled;
    out_of_time;
    oracle_s = !oracle_s;
    elapsed_s = Obs.Clock.now_s () -. t0;
  }

(* Observability: audited-subject / incident totals. *)
let m_subjects = Obs.Metrics.counter "audit.subjects"
let m_skipped = Obs.Metrics.counter "audit.skipped"
let m_incidents = Obs.Metrics.counter "audit.incidents"
let m_healed = Obs.Metrics.counter "audit.healed"

let run (cfg : config) ~(profiles : Workloads.Profile.t list) ~(scale : int)
    ~(mutants : int) : summary =
  let subjects (prof : Workloads.Profile.t) =
    let base = lazy (Workloads.Gen.generate ~scale prof) in
    let program () =
      cfg.log (Printf.sprintf "auditing %s (scale %d)" prof.pname scale);
      { name = prof.pname; seed = prof.seed; mutation = "";
        src = Ok (Lazy.force base) }
    in
    let mutant ast rng m =
      Mutate.random rng ast
      |> Option.map (fun (ast', mut, descr) () ->
             let mutation = Mutate.to_string mut in
             cfg.log (Printf.sprintf "  mutant %d: %s (%s)" m mutation descr);
             { name = prof.pname; seed = cfg.seed + m; mutation;
               src = Ok (Tinyc.Pretty.program_to_string ast') })
    in
    (* Mutants: once the base is audited, parse it once, then mutate
       deterministically. *)
    let mutants_of () =
      match Tinyc.Parser.parse_program (Lazy.force base) with
      | exception Diag.Error _ -> Seq.Nil
      | ast ->
        let rng = Workloads.Rng.create (cfg.seed + (1000 * prof.seed)) in
        Seq.filter_map (mutant ast rng) (Seq.init (max 0 mutants) succ) ()
    in
    Seq.cons program mutants_of
  in
  let s =
    campaign cfg (Audit { feedback = true })
      ~refused:(fun _ e -> Printf.sprintf "skipped (%s)" e)
      (Seq.concat_map subjects (List.to_seq profiles))
  in
  Obs.Metrics.add m_subjects s.subjects;
  Obs.Metrics.add m_skipped s.skipped;
  Obs.Metrics.add m_incidents (List.length s.incidents);
  Obs.Metrics.add m_healed s.healed;
  s
