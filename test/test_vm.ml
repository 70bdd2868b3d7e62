(* The bytecode VM against the reference interpreter.

   The contract under test is total outcome equivalence: for any program
   and any instrumentation plan, [Vm.Exec.run (Vm.Lower.lower cp)] must
   produce an [Interp.outcome] that is field-for-field identical to
   [Interp.run cp] — outputs, exit value, step count, every cost-model
   counter, and the detection / ground-truth label sets — and must fail
   identically too (same [Runtime_error] message, same
   [Resource_exhausted] payload). Unit tests pin known programs, the
   degradation rungs, limit parity and the disassembler round-trip; the
   qcheck properties then drive randomly generated programs through
   every variant and through seeded degradation rungs. *)

open Helpers
module RI = Runtime.Interp

let labels tbl =
  Hashtbl.fold (fun l () acc -> l :: acc) tbl [] |> List.sort compare

let outcome_diff (a : RI.outcome) (b : RI.outcome) : string list =
  let module C = Runtime.Counters in
  let ca = a.counters and cb = b.counters in
  let d = ref [] in
  let chk name x y =
    if x <> y then d := Printf.sprintf "%s (%d vs %d)" name x y :: !d
  in
  if a.outputs <> b.outputs then d := "outputs" :: !d;
  chk "exit_value" a.exit_value b.exit_value;
  chk "steps" a.steps b.steps;
  chk "alu" ca.C.alu cb.C.alu;
  chk "mem" ca.C.mem cb.C.mem;
  chk "branch" ca.C.branch cb.C.branch;
  chk "call" ca.C.call cb.C.call;
  chk "alloc" ca.C.alloc cb.C.alloc;
  chk "alloc_cells" ca.C.alloc_cells cb.C.alloc_cells;
  chk "io" ca.C.io cb.C.io;
  chk "sh_reg" ca.C.sh_reg cb.C.sh_reg;
  chk "sh_reg_reads" ca.C.sh_reg_reads cb.C.sh_reg_reads;
  chk "sh_mem" ca.C.sh_mem cb.C.sh_mem;
  chk "sh_obj" ca.C.sh_obj cb.C.sh_obj;
  chk "sh_obj_cells" ca.C.sh_obj_cells cb.C.sh_obj_cells;
  chk "sh_check" ca.C.sh_check cb.C.sh_check;
  if labels a.detections <> labels b.detections then d := "detections" :: !d;
  if labels a.gt_uses <> labels b.gt_uses then d := "gt_uses" :: !d;
  !d

(* Both engines on one compiled program; any differing field fails. *)
let equiv ?limits what (cp : RI.cprog) =
  let oi = RI.run ?limits cp in
  let ov = Vm.Exec.run ?limits (Vm.Lower.lower cp) in
  match outcome_diff oi ov with
  | [] -> ()
  | ds ->
    Alcotest.failf "%s: engines disagree on %s" what (String.concat ", " ds)

(* Every variant plus the uninstrumented program. *)
let equiv_all_variants ?(knobs = Usher.Config.default_knobs) what src =
  let prog, a = analyze ~knobs src in
  equiv (what ^ "/native") (RI.compile prog (Instr.Item.empty_plan prog));
  List.iter
    (fun v ->
      let plan, _ = Usher.Pipeline.plan_for a v in
      equiv
        (what ^ "/" ^ Usher.Config.variant_name v)
        (RI.compile prog plan))
    Usher.Config.all_variants

let undef_src =
  "int id(int x) { return x; }\n\
   int main() { int u; int y = id(u); if (y > 0) { print(1); } return 0; }"

let heap_src =
  "struct P { int px; int py; };\n\
   int main() { struct P *p = (struct P*)malloc(sizeof(struct P));\n\
  \  p->px = 3; int s = 0; int i;\n\
  \  for (i = 0; i < 4; i = i + 1) { int *q = (int*)malloc(2); *q = i; s = s \
   + *q + p->px; }\n\
  \  print(s); return 0; }"

(* The degradation ladder: each rung reshapes every variant's plan, and
   the VM must track the interpreter through all of them. *)
let rungs =
  let crash phase =
    { Usher.Config.fphase = phase; ffunc = None; fkind = Usher.Config.Crash }
  in
  let k = Usher.Config.default_knobs in
  [
    ("budget-0", { k with Usher.Config.budget_ms = Some 0 });
    ("fuel-0", { k with Usher.Config.solver_fuel = Some 0 });
    ("resolve-crash", { k with Usher.Config.inject = [ crash Diag.Resolve ] });
    ( "callgraph-crash",
      { k with Usher.Config.inject = [ crash Diag.Callgraph ] } );
    ("vfg-cap-0", { k with Usher.Config.vfg_node_cap = Some 0 });
  ]

let unit_tests =
  [
    tc "all variants agree on the undefined-use program" (fun () ->
        equiv_all_variants "undef" undef_src);
    tc "all variants agree on heap allocation in a loop" (fun () ->
        equiv_all_variants "heap" heap_src);
    tc "all variants agree on the 164.gzip analog" (fun () ->
        equiv_all_variants "gzip"
          (Workloads.Spec2000.source ~scale:2
             (Workloads.Spec2000.find "164.gzip")));
    tc "every degradation rung agrees" (fun () ->
        List.iter
          (fun (name, knobs) -> equiv_all_variants ~knobs name undef_src)
          rungs);
  ]

(* ---- failure parity -------------------------------------------------- *)

let run_to_failure ?limits run cp : string =
  match run ?limits cp with
  | (_ : RI.outcome) -> "no failure"
  | exception RI.Runtime_error m -> "runtime_error: " ^ m
  | exception RI.Resource_exhausted { what; limit } ->
    Printf.sprintf "exhausted %s at %d" what limit

let failure_parity ?limits what src =
  let prog = front src in
  let cp = RI.compile prog (Instr.Item.empty_plan prog) in
  let bp = Vm.Lower.lower cp in
  let fi = run_to_failure ?limits RI.run cp in
  let fv = run_to_failure ?limits (fun ?limits bp -> Vm.Exec.run ?limits bp) bp in
  check_str what fi fv;
  fi

let failure_tests =
  [
    tc "steps limit: identical Resource_exhausted" (fun () ->
        let f =
          failure_parity
            ~limits:{ RI.default_limits with RI.max_steps = 1000 }
            "steps" "int main() { while (1) { } return 0; }"
        in
        check_str "is the steps limit" "exhausted steps at 1000" f);
    tc "depth limit: identical Resource_exhausted" (fun () ->
        let f =
          failure_parity
            ~limits:{ RI.default_limits with RI.max_depth = 64 }
            "depth" "int f(int n) { return f(n + 1); }\n\
                     int main() { return f(0); }"
        in
        check_str "is the depth limit" "exhausted call depth at 64" f);
    tc "objects limit: identical Resource_exhausted" (fun () ->
        let f =
          failure_parity
            ~limits:{ RI.default_limits with RI.max_objects = 16 }
            "objects"
            "int main() { int i;\n\
            \  for (i = 0; i < 100; i = i + 1) { int *q = (int*)malloc(1); \
             *q = i; }\n\
            \  return 0; }"
        in
        check_str "is the object limit" "exhausted objects at 16" f);
    tc "out-of-bounds access: identical Runtime_error" (fun () ->
        let f =
          failure_parity "oob"
            "int main() { int *p = (int*)malloc(4); return p[9]; }"
        in
        check_bool "is a runtime error" true
          (String.length f > 14 && String.sub f 0 14 = "runtime_error:"));
  ]

(* ---- bytecode container ---------------------------------------------- *)

let disasm_tests =
  [
    tc "disassembly reassembles to the same code stream" (fun () ->
        let prog, a = analyze ~knobs:Usher.Config.default_knobs heap_src in
        let plan, _ = Usher.Pipeline.plan_for a Usher.Config.Msan in
        let bp = Vm.Lower.lower (RI.compile prog plan) in
        Array.iter
          (fun (f : Vm.Bytecode.func) ->
            let back = Vm.Bytecode.asm (Vm.Bytecode.disasm f) in
            check_bool (f.fname ^ " round-trips") true (back = f.code))
          bp.funcs);
    tc "every emitted opcode has a mnemonic and operand count" (fun () ->
        check_int "mnemonics" Vm.Bytecode.n_opcodes
          (Array.length Vm.Bytecode.mnemonics);
        check_int "operand counts" Vm.Bytecode.n_opcodes
          (Array.length Vm.Bytecode.operand_counts));
    tc "engine names round-trip" (fun () ->
        List.iter
          (fun e ->
            check_bool (Vm.Engine.name e) true
              (Vm.Engine.of_string (Vm.Engine.name e) = Some e))
          [ Vm.Engine.Interp; Vm.Engine.Vm ];
        check_bool "unknown rejected" true
          (Vm.Engine.of_string "threaded" = None));
  ]

(* ---- engine choice --------------------------------------------------- *)

let chosen ~steps ~instrs = Vm.Engine.name (Vm.Engine.choose ~steps ~instrs)

let choose_tests =
  [
    tc "choose switches to the VM at 64 steps per instruction" (fun () ->
        List.iter
          (fun n ->
            check_str (Printf.sprintf "64*%d - 1 steps" n) "interp"
              (chosen ~steps:((64 * n) - 1) ~instrs:n);
            check_str (Printf.sprintf "64*%d steps" n) "vm"
              (chosen ~steps:(64 * n) ~instrs:n))
          [ 1; 2; 7; 4763; 55834 ]);
    tc "choose never picks the VM for an empty program" (fun () ->
        List.iter
          (fun steps ->
            check_str (Printf.sprintf "%d steps, 0 instrs" steps) "interp"
              (chosen ~steps ~instrs:0))
          [ 0; 1; 1_000_000 ]);
  ]

(* Everything deterministic about an experiment: the Table 1 row with its
   clock and memory fields zeroed, every variant_result field, the native
   counters and outputs, and the ground-truth uses. *)
let experiment_view (e : Usher.Experiment.t) =
  ( { e.table1 with analysis_time_s = 0.; analysis_mem_mb = 0. },
    List.map
      (fun (r : Usher.Experiment.variant_result) ->
        { r with detections = List.sort compare r.detections })
      e.results,
    e.native_counters,
    e.native_outputs,
    List.sort compare e.gt_uses )

let m_interp_runs = Obs.Metrics.counter "interp.runs"
let m_vm_steps = Obs.Metrics.counter "vm.dispatch_steps"

(* The default engine choice against both forced engines on one analog.
   Returns the default run's (interp.runs, vm.dispatch_steps) deltas. *)
let default_matches_forced name scale =
  let src =
    Workloads.Spec2000.source ~scale (Workloads.Spec2000.find name)
  in
  let runs0 = Obs.Metrics.counter_value m_interp_runs
  and steps0 = Obs.Metrics.counter_value m_vm_steps in
  let auto = Usher.Experiment.run ~name src in
  let deltas =
    ( Obs.Metrics.counter_value m_interp_runs - runs0,
      Obs.Metrics.counter_value m_vm_steps - steps0 )
  in
  List.iter
    (fun engine ->
      let forced = Usher.Experiment.run ~name ~engine src in
      check_bool
        (Printf.sprintf "%s: default = --engine %s" name
           (Vm.Engine.name engine))
        true
        (experiment_view auto = experiment_view forced))
    [ Vm.Engine.Interp; Vm.Engine.Vm ];
  deltas

let experiment_engine_tests =
  [
    tc "164.gzip at scale 100: plan runs go to the VM" (fun () ->
        (* about 85 native steps per IR instruction *)
        let runs, vm_steps = default_matches_forced "164.gzip" 100 in
        check_int "interp.runs: the native run only" 1 runs;
        check_bool "vm.dispatch_steps > 0" true (vm_steps > 0));
    tc "176.gcc at scale 5: plan runs stay on the interpreter" (fun () ->
        (* about 2.6 native steps per IR instruction *)
        let runs, vm_steps = default_matches_forced "176.gcc" 5 in
        check_int "interp.runs: native + five plans" 6 runs;
        check_int "vm.dispatch_steps" 0 vm_steps);
  ]

(* ---- properties ------------------------------------------------------ *)

let arbitrary_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000)

let prop name count f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary_seed f)

let property_tests =
  [
    prop "vm ≡ interp on generated programs, all variants" 40 (fun seed ->
        equiv_all_variants
          (Printf.sprintf "gen-%d" seed)
          (Audit.Gen.source ~seed ());
        true);
    prop "vm ≡ interp under seeded degradation rungs" 25 (fun seed ->
        let name, knobs = List.nth rungs (seed mod List.length rungs) in
        equiv_all_variants ~knobs
          (Printf.sprintf "gen-%d/%s" seed name)
          (Audit.Gen.source ~seed ());
        true);
    prop "vm ≡ interp under tight step limits" 15 (fun seed ->
        (* run both engines into (or just past) the limit wall: whichever
           side of it the program lands on, the outcome or the exception
           must match *)
        let prog = front (Audit.Gen.source ~seed ()) in
        let cp = RI.compile prog (Instr.Item.empty_plan prog) in
        let bp = Vm.Lower.lower cp in
        let limits = { RI.default_limits with RI.max_steps = 200 } in
        (match
           ( RI.run ~limits cp,
             Vm.Exec.run ~limits bp )
         with
        | oi, ov ->
          (match outcome_diff oi ov with
          | [] -> ()
          | ds ->
            Alcotest.failf "gen-%d: engines disagree on %s" seed
              (String.concat ", " ds))
        | exception _ ->
          let fi = run_to_failure ~limits RI.run cp in
          let fv =
            run_to_failure ~limits
              (fun ?limits bp -> Vm.Exec.run ?limits bp)
              bp
          in
          check_str (Printf.sprintf "gen-%d failure" seed) fi fv);
        true);
  ]

let suites =
  [
    ("vm.equiv", unit_tests);
    ("vm.failures", failure_tests);
    ("vm.bytecode", disasm_tests);
    ("vm.choose", choose_tests);
    ("vm.experiment", experiment_engine_tests);
    ("vm.properties", property_tests);
  ]
