(* The benchmark's four workloads. A workload is a seeded list of
   programs, each run once through [Usher.Experiment.run] at its
   optimization level. perf/README.md and BENCHMARK.json record why each
   one exists. *)

type program = { id : string; level : Optim.Pipeline.level; src : string }

type t = { name : string; programs : seed:int -> program list }

(* SPEC analogs keep the paper's per-profile seed at S = 1 and shift it
   by S - 1 otherwise, so every seed is a same-shaped program. *)
let spec ~scale ~level names ~seed =
  List.map
    (fun n ->
      let p = Workloads.Spec2000.find n in
      let p = { p with Workloads.Profile.seed = p.Workloads.Profile.seed + seed - 1 } in
      { id = n; level; src = Workloads.Spec2000.source ~scale p })
    names

(* [copies] programs of one analog, from consecutive seeds. *)
let spec_copies ~copies ~scale ~level name ~seed =
  List.concat
    (List.init copies (fun k ->
         List.map
           (fun p -> { p with id = Printf.sprintf "%s#%d" p.id k })
           (spec ~scale ~level [ name ] ~seed:(((seed - 1) * copies) + k + 1))))

(* Program i is exactly the one `usherc fuzz --seed S` generates at
   index i. *)
let gen ~count ~seed =
  List.init count (fun i ->
      {
        id = Printf.sprintf "gen%d" i;
        level = Optim.Pipeline.O0_IM;
        src = Audit.Gen.source ~size:3 ~seed:(Audit.Gen.campaign_seed ~seed i) ();
      })

let all =
  [
    {
      name = "large-o0";
      programs =
        spec ~scale:30 ~level:Optim.Pipeline.O0_IM
          [ "176.gcc"; "253.perlbmk"; "254.gap" ];
    };
    {
      name = "mid-o2";
      programs =
        spec ~scale:30 ~level:Optim.Pipeline.O2
          [ "175.vpr"; "186.crafty"; "300.twolf"; "197.parser" ];
    };
    {
      name = "exec-gzip";
      programs = spec_copies ~copies:4 ~scale:750 ~level:Optim.Pipeline.O0_IM "164.gzip";
    };
    { name = "gen-small"; programs = gen ~count:2000 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
