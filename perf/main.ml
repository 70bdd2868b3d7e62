(* The benchmark of the `usherc bench` path: [Usher.Experiment.run] once per
   program of a named workload (perf/workload.ml), every run in a fresh
   child process, one after another on one domain.

     dune exec perf/main.exe -- WORKLOAD [--seed S] [--runs N | --seconds T]
                                         [--trace 0|1|FILE]

   WORKLOAD may also be given as [--workload WORKLOAD]. [--runs N] makes N
   untraced runs; [--seconds T] keeps starting untraced runs while the
   next one is expected to end within T seconds (default: one run). With
   [--trace] other than 0, one traced run follows in its own process
   (perf/layers.ml); a FILE argument also receives its Chrome trace.

   Output: one row per metric (median, q1, q3 over the runs), the ids of
   the programs that failed, then one JSON line: {"correct", "attempted",
   "failed", "metrics"}, where attempted and failed count the workload's
   programs once, and metrics are the end-to-end ones without a trace and
   the per-layer ones with it. Exit 0 even when programs fail
   (they are counted); exit 1 when the benchmark itself is broken: a child
   crashed, the traced run disagrees with [Experiment.run], or its spans
   are unbalanced. *)

module J = Serve.Json
open Report

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perf: " ^ m);
      exit 1)
    fmt

let find_workload name =
  match Workload.find name with
  | Some w -> w
  | None ->
    fail "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all))

(* ---- child side ---- *)

let child ~mode ~workload ~seed ~spawned_ns ~trace_file =
  let w = find_workload workload in
  let programs = w.programs ~seed in
  let setup_ns = Obs.Clock.now_ns () - spawned_ns in
  let (probe_ns, results), traced =
    if mode = "traced" then begin
      let tr = Layers.create () in
      let results = Iteration.traced tr ~workload programs in
      let summary = Iteration.process_summary tr in
      Option.iter
        (fun file ->
          let ids = Array.of_list (List.map (fun (p : Workload.program) -> p.id) programs) in
          Out_channel.with_open_bin file (fun oc ->
              output_string oc
                (J.to_line (Layers.chrome_trace tr.spans ~ids:(Array.get ids)))))
        trace_file;
      (results, Some summary)
    end
    else (Iteration.untraced programs, None)
  in
  let it : Iteration.t =
    { setup_ns; rss_kb = Iteration.peak_rss_kb (); probe_ns; programs = results; traced }
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout it []

(* ---- parent side ---- *)

let spawn ~mode ~workload ~seed ~trace_file : Iteration.t =
  let exe = Sys.executable_name in
  let spawned_ns = Obs.Clock.now_ns () in
  let args =
    [ exe; "--child"; mode; "--workload"; workload; "--seed"; string_of_int seed;
      "--spawned-ns"; string_of_int spawned_ns ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  (* A parent stopped by a signal takes its child with it. *)
  let on_signal h = List.iter (fun s -> Sys.set_signal s h) [ Sys.sigterm; Sys.sigint ] in
  on_signal
    (Sys.Signal_handle
       (fun _ ->
         (try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ());
         exit 1));
  let ic = Unix.in_channel_of_descr rd in
  set_binary_mode_in ic true;
  let out = In_channel.input_all ic in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  on_signal Sys.Signal_default;
  match status with
  | Unix.WEXITED 0 -> (
    try (Marshal.from_string out 0 : Iteration.t)
    with Failure m | Invalid_argument m -> fail "%s child: unreadable result (%s)" mode m)
  | Unix.WEXITED c -> fail "%s child exited with code %d" mode c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "%s child killed by signal %d" mode s

type budget = Runs of int | Seconds of float

let parent ~workload ~seed ~budget ~trace ~trace_file =
  let w = find_workload workload in
  let run mode = spawn ~mode ~workload:w.name ~seed ~trace_file:(if mode = "traced" then trace_file else None) in
  let untraced =
    match budget with
    | Runs n -> List.init (max 1 n) (fun _ -> run "untraced")
    | Seconds limit ->
      (* With a trace to follow, the next untraced run and the traced one
         (about 1.3 untraced runs) must both fit. *)
      let start = Obs.Clock.now_s () in
      let rec loop acc took =
        let t0 = Obs.Clock.now_s () in
        let it = run "untraced" in
        let took = Obs.Clock.elapsed_s t0 :: took in
        let next = median took *. if trace then 2.3 else 1.0 in
        if Obs.Clock.elapsed_s start +. next > limit then List.rev (it :: acc)
        else loop (it :: acc) took
      in
      loop [] []
  in
  let first = List.hd untraced in
  let traced = if trace then Some (run "traced") else None in
  let nondeterministic =
    List.sort_uniq compare (List.concat_map (differing first) (List.tl untraced))
  in
  if nondeterministic <> [] then
    Printf.eprintf "perf: outputs differ between identical runs: %s\n%!"
      (String.concat " " nondeterministic);
  let e2e = end_to_end untraced in
  let metrics =
    match traced with
    | None -> e2e
    | Some it ->
      let x = match it.traced with Some x -> x | None -> fail "traced child sent no trace" in
      (match differing first it with
      | [] -> ()
      | ids ->
        fail "equivalence gate: the traced run differs from Experiment.run on %s"
          (String.concat " " ids));
      if not x.balanced then fail "traced run: unbalanced spans";
      let _, _, walls = List.find (fun (n, _, _) -> n = "wall_s") e2e in
      per_layer ~untraced_wall_s:(median walls) it x
  in
  (* One operation per program of the workload, not per run: every run
     repeats the same programs and must agree with the first (else
     [correct] is false, or the gate exits 1). Counting repetitions would
     make the totals depend on how many runs fit in the time budget. *)
  let fails =
    List.filter_map
      (fun (r : Iteration.program_result) ->
        match r.outcome with Error m -> Some (r.id, m) | Ok _ -> None)
      first.programs
  in
  let attempted = List.length first.programs and failed = List.length fails in
  Printf.printf "workload %s, seed %d: %d untraced run(s)%s, %d programs each\n" w.name seed
    (List.length untraced) (if trace then " + 1 traced" else "")
    (List.length first.programs);
  let show (name, unit_, vs) =
    let q1, q3 = quartiles vs in
    Printf.printf "  %-32s %14.6g %14.6g %14.6g  %s\n" name (median vs) q1 q3 unit_
  in
  Printf.printf "  %-32s %14s %14s %14s  unit\n" "metric" "median" "q1" "q3";
  List.iter show e2e;
  if traced <> None then List.iter show metrics;
  let raw f = median (List.map f untraced) in
  Printf.printf
    "unscaled medians: wall_s %.6g, setup_s %.6g; probe %.4g ms (reference %.4g ms)\n"
    (raw (fun it -> float_of_int (program_ns it) *. 1e-9))
    (raw (fun it -> float_of_int it.setup_ns *. 1e-9))
    (median (List.concat_map (fun (it : Iteration.t) -> List.map float_of_int it.probe_ns) untraced)
    /. 1e6)
    (float_of_int Probe.reference_ns /. 1e6);
  Printf.printf "failed: %d/%d programs per run%s\n" failed attempted
    (if fails = [] then "" else ": " ^ String.concat " " (List.map fst fails));
  List.iter (fun (id, m) -> Printf.printf "  %s: %s\n" id m) fails;
  print_endline (result_line ~correct:(nondeterministic = []) ~attempted ~failed metrics)

(* ---- command line ---- *)

let usage () =
  fail
    "usage: main.exe WORKLOAD [--seed S] [--runs N | --seconds T] [--trace 0|1|FILE]"

let () =
  let workload = ref None and seed = ref 1 and budget = ref (Runs 1) in
  let trace = ref false and trace_file = ref None in
  let child_mode = ref None and spawned_ns = ref 0 in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_arg s;
      parse rest
    | "--runs" :: n :: rest ->
      budget := Runs (int_arg n);
      parse rest
    | "--seconds" :: t :: rest ->
      budget := Seconds (float_of_int (int_arg t));
      parse rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | file ->
        trace := true;
        trace_file := Some file);
      parse rest
    | "--child" :: m :: rest ->
      child_mode := Some m;
      parse rest
    | "--spawned-ns" :: n :: rest ->
      spawned_ns := int_arg n;
      parse rest
    | w :: rest when !workload = None && String.length w > 0 && w.[0] <> '-' ->
      workload := Some w;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  match !child_mode with
  | Some mode ->
    child ~mode ~workload ~seed:!seed ~spawned_ns:!spawned_ns ~trace_file:!trace_file
  | None ->
    parent ~workload ~seed:!seed ~budget:!budget ~trace:!trace ~trace_file:!trace_file
