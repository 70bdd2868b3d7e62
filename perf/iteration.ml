(* One pass over a workload, as run inside one child process. The child
   hands its [t] to the parent with [Marshal]: both are the same
   executable. *)

type program_result = {
  id : string;
  ns : int;  (** wall time of this program's experiment *)
  outcome : (Equiv.t, string) result;  (** [Error] = the exception raised *)
}

(* What only the traced run measures. *)
type traced = {
  layers : (string * float * float) list;  (** call, busy s, M words *)
  work : (string * int) list;
  coverage_pct : float;
  balanced : bool;
  cpu_s : float;
  alloc_mw : float;
  minor_gcs : int;
  major_gcs : int;
}

type t = {
  setup_ns : int;  (** child spawn to inputs ready *)
  rss_kb : int;  (** VmHWM of the child *)
  probe_ns : int list;  (** {!Probe.measure} readings, in order *)
  programs : program_result list;
  traced : traced option;
}

(* [Equiv.of_experiment] runs outside the timed region, and the experiment
   is dropped right after it, so only one program's artifacts are live at
   a time. *)
let run_one f i (p : Workload.program) : program_result =
  let t0 = Obs.Clock.now_ns () in
  match f i p with
  | e ->
    let ns = Obs.Clock.elapsed_ns t0 in
    let outcome =
      match Equiv.degradation e with
      | Some ev -> Error ("degraded: " ^ ev)
      | None -> Ok (Equiv.of_experiment e)
    in
    { id = p.id; ns; outcome }
  | exception ex ->
    let ns = Obs.Clock.elapsed_ns t0 in
    { id = p.id; ns; outcome = Error (Printexc.to_string ex) }

(* The probe runs before the first program and then after the first
   program that ends at least this long after the previous probe, and
   after the last one, so a run's readings sample its whole length. *)
let probe_every_ns = 250_000_000

(* Returns the probe readings and the results, both in order. *)
let run_programs (f : int -> Workload.program -> Usher.Experiment.t)
    (programs : Workload.program list) : int list * program_result list =
  let probes = ref [ Probe.measure () ] in
  let since = ref (Obs.Clock.now_ns ()) in
  let last = List.length programs - 1 in
  let results =
    List.mapi
      (fun i p ->
        let r = run_one f i p in
        if i = last || Obs.Clock.elapsed_ns !since >= probe_every_ns then begin
          probes := Probe.measure () :: !probes;
          since := Obs.Clock.now_ns ()
        end;
        r)
      programs
  in
  (List.rev !probes, results)

let untraced programs =
  run_programs
    (fun _ (p : Workload.program) ->
      Usher.Experiment.run ~name:p.id ~level:p.level p.src)
    programs

(* The traced pass, timed and probed the same way as [untraced]. *)
let traced tr ~(workload : string) programs =
  Layers.span tr ~cat:"workload" ~prog:(-1) workload (fun () ->
      run_programs (fun index p -> Layers.experiment tr ~index p) programs)

let process_summary tr : traced =
  let spans = tr.Layers.spans in
  let st = Gc.quick_stat () in
  {
    layers = Layers.per_call spans;
    work = List.map (fun c -> (c, Layers.work tr c)) Layers.counts;
    coverage_pct = Layers.coverage_pct spans;
    balanced = Layers.balanced spans;
    cpu_s = Sys.time ();
    alloc_mw = Layers.allocated () /. 1e6;
    minor_gcs = st.minor_collections;
    major_gcs = st.major_collections;
  }

let peak_rss_kb () : int =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
