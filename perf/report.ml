(* Turning runs into metrics: order statistics, the end-to-end and
   per-layer metric sets, the equivalence gate's comparison, and the
   result line. *)

module J = Serve.Json

let sorted l = List.sort compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's statistics.quantiles(n=4)
   computes them (the "exclusive" method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile. *)
let percentile p l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Factor that takes one run's times to the probe's reference speed. *)
let speed (it : Iteration.t) =
  float_of_int Probe.reference_ns /. median (List.map float_of_int it.probe_ns)

let scaled_s (it : Iteration.t) ns = float_of_int ns *. speed it *. 1e-9

let program_ns (it : Iteration.t) =
  List.fold_left (fun a (r : Iteration.program_result) -> a + r.ns) 0 it.programs

(* (name, unit, one value per run) *)
type metric = string * string * float list

let end_to_end (runs : Iteration.t list) : metric list =
  let per f = List.map f runs in
  let ms (it : Iteration.t) =
    List.map (fun (r : Iteration.program_result) -> scaled_s it r.ns *. 1e3) it.programs
  in
  let ok (it : Iteration.t) =
    List.filter_map (fun (r : Iteration.program_result) -> Result.to_option r.outcome) it.programs
  in
  [
    ("wall_s", "s", per (fun it -> List.fold_left ( +. ) 0.0 (ms it) /. 1e3));
    ("setup_s", "s", per (fun it -> scaled_s it it.setup_ns));
    ("peak_rss_mb", "MB", per (fun it -> float_of_int it.rss_kb /. 1024.0));
    ("program_p50_ms", "ms", per (fun it -> percentile 0.50 (ms it)));
    ("program_p99_ms", "ms", per (fun it -> percentile 0.99 (ms it)));
    ( "usher_slowdown_pct", "%",
      per (fun it -> mean (List.map (fun (e : Equiv.t) -> e.usher_slowdown_pct) (ok it))) );
    ( "usher_checks_pct", "%",
      per (fun it -> mean (List.map (fun (e : Equiv.t) -> e.usher_checks_pct) (ok it))) );
    (* 1 - fail_ratio: a metric must never read 0. *)
    ( "pass_ratio", "ratio",
      per (fun it ->
          float_of_int (List.length (ok it)) /. float_of_int (List.length it.programs)) );
  ]

let per_layer ~(untraced_wall_s : float) (it : Iteration.t) (x : Iteration.traced) :
    metric list =
  let one name unit_ v = (name, unit_, [ v ]) in
  let wall_s = scaled_s it (program_ns it) in
  List.concat_map
    (fun (c, s, mw) -> [ one (c ^ "_s") "s" s; one (c ^ "_mw") "Mword" mw ])
    x.layers
  @ List.map (fun (c, n) -> one c "count" (float_of_int n)) x.work
  @ [
      one "process.cpu_s" "s" x.cpu_s;
      one "process.alloc_mw" "Mword" x.alloc_mw;
      one "gc.minor_collections" "count" (float_of_int x.minor_gcs);
      one "gc.major_collections" "count" (float_of_int x.major_gcs);
      one "trace.coverage_pct" "%" x.coverage_pct;
      one "trace.overhead_pct" "%" (100.0 *. (wall_s -. untraced_wall_s) /. untraced_wall_s);
    ]

(* Per-program outcome key the gate compares: the digest, or the
   exception text. *)
let keys (it : Iteration.t) =
  List.map
    (fun (r : Iteration.program_result) ->
      (r.id, match r.outcome with Ok e -> e.digest | Error m -> "raised " ^ m))
    it.programs

let differing a b =
  List.filter_map
    (fun ((id, ka), (_, kb)) -> if ka = kb then None else Some id)
    (List.combine (keys a) (keys b))

let result_line ~correct ~attempted ~failed (metrics : metric list) : string =
  J.to_line
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, unit_, vs) ->
                  (name, J.Obj [ ("value", J.Num (median vs)); ("unit", J.Str unit_) ]))
                metrics) );
       ])
