(* `dune runtest` smoke check of the benchmark on tiny inputs: 20
   generated programs, and 197.parser at scale 3 at O0+IM and at O2. Both
   the untraced and the traced path run in this process; the check fails
   (exit 1) unless the equivalence gate holds, the traced spans are
   balanced and cover at least 98% of the traced program time, every JSON
   document the benchmark emits parses back, and the result lines carry
   exactly the metrics BENCHMARK.json (the argument) lists. *)

module J = Serve.Json

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

(* Metric names of one BENCHMARK.json section. *)
let listed (bench : J.t) section =
  Option.bind (J.member section bench) J.list_
  |> Option.value ~default:[]
  |> List.filter_map (fun m -> Option.bind (J.member "name" m) J.str)

let case (bench : J.t) name (programs : Workload.program list) =
  let run (probe_ns, programs) traced : Iteration.t =
    { setup_ns = 1; rss_kb = 1; probe_ns; programs; traced }
  in
  let untraced = run (Iteration.untraced programs) None in
  let tr = Layers.create () in
  let results = Iteration.traced tr ~workload:name programs in
  let summary = Iteration.process_summary tr in
  let traced = run results (Some summary) in
  check (name ^ ": equivalence gate") (Report.differing untraced traced = []);
  check (name ^ ": spans balanced") summary.balanced;
  check
    (Printf.sprintf "%s: trace.coverage_pct %.2f >= 98" name summary.coverage_pct)
    (summary.coverage_pct >= 98.0);
  List.iter
    (fun (section, metrics) ->
      let line = Report.result_line ~correct:true ~attempted:1 ~failed:0 metrics in
      match J.parse line with
      | Ok (J.Obj [ ("correct", _); ("attempted", _); ("failed", _); ("metrics", J.Obj ms) ]) ->
        check
          (Printf.sprintf "%s: result line has the %s metrics" name section)
          (List.map fst ms = listed bench section)
      | _ -> check (name ^ ": result line parses with four keys") false)
    [
      ("end_to_end", Report.end_to_end [ untraced ]);
      ("per_layer", Report.per_layer ~untraced_wall_s:1.0 traced summary);
    ];
  let ids = Array.of_list (List.map (fun (p : Workload.program) -> p.id) programs) in
  match J.parse (J.to_line (Layers.chrome_trace tr.spans ~ids:(Array.get ids))) with
  | Ok v ->
    check (name ^ ": one trace event per span")
      (Option.map List.length (Option.bind (J.member "traceEvents" v) J.list_)
      = Some (List.length tr.spans))
  | Error m -> check (name ^ ": chrome trace parses: " ^ m) false

let () =
  let bench =
    match J.parse (In_channel.with_open_bin Sys.argv.(1) In_channel.input_all) with
    | Ok v -> v
    | Error m -> failwith ("BENCHMARK.json: " ^ m)
  in
  (* Python's statistics.quantiles([1, 2, 3, 4, 5], n=4) is [1.5, 3.0, 4.5]. *)
  check "quartiles" (Report.quartiles [ 5.0; 1.0; 4.0; 2.0; 3.0 ] = (1.5, 4.5));
  (let sp cat prog t0 t1 = { Layers.name = cat; cat; prog; t0; t1; words = 0.0 } in
   check "a layer span outside its program is unbalanced"
     (not
        (Layers.balanced
           [ sp "workload" (-1) 0 10; sp "program" 0 1 5; sp "layer" 0 4 6 ])));
  case bench "gen20" (Workload.gen ~count:20 ~seed:1);
  List.iter
    (fun level ->
      case bench
        ("197.parser@" ^ Optim.Pipeline.level_to_string level)
        (Workload.spec ~scale:3 ~level [ "197.parser" ] ~seed:1))
    [ Optim.Pipeline.O0_IM; Optim.Pipeline.O2 ];
  if !failures > 0 then exit 1;
  print_endline "perf smoke: OK"
