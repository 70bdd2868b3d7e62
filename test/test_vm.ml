(* The bytecode VM against the reference interpreter, and the
   interpreter's lanes against one-plan runs on both engines.

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

(* Eq/Ne on two pointers compare object and offset; other operators and
   mixed operands compare packed integers. *)
let ptr_cmp_src =
  "int main() { int *p = (int*)malloc(2); int *q = p + 1; int *r = p;\n\
  \  int *s = q - 1; if (p == r) { print(1); } if (p != q) { print(2); }\n\
  \  if (p == q) { print(3); } if (s == p) { print(4); }\n\
  \  if (s != r) { print(5); } if (p < q) { print(6); } return 0; }"

(* The degradation ladder: each rung reshapes every variant's plan, and
   the VM must track the interpreter through all of them. *)
let rungs =
  let fault fkind phase = { Usher.Config.fphase = phase; ffunc = None; fkind } in
  let k = Usher.Config.default_knobs in
  let inject fkind phase = { k with Usher.Config.inject = [ fault fkind phase ] } in
  [
    ("budget-0", { k with Usher.Config.budget_ms = Some 0 });
    ("andersen=exhaust", inject Usher.Config.Exhaust Diag.Andersen);
    ("resolve-crash", inject Usher.Config.Crash Diag.Resolve);
    ("callgraph-crash", inject Usher.Config.Crash Diag.Callgraph);
    ("vfg=exhaust", inject Usher.Config.Exhaust Diag.Vfg_build);
  ]

let unit_tests =
  [
    tc "all variants agree on the undefined-use program" (fun () ->
        equiv_all_variants "undef" undef_src);
    tc "all variants agree on heap allocation in a loop" (fun () ->
        equiv_all_variants "heap" heap_src);
    tc "all variants agree on input()" (fun () ->
        equiv_all_variants "input"
          "int main() { int a = input(); int b = input(); print(a); print(b);\n\
          \  if (a > b) { print(1); } return 0; }");
    tc "all variants agree on pointer comparisons" (fun () ->
        equiv_all_variants "ptr-cmp" ptr_cmp_src;
        let prog = front ptr_cmp_src in
        check_ints "outputs" [ 1; 2; 4; 6 ]
          (Runtime.Interp.run_native prog).outputs);
    tc "all variants agree on the 164.gzip analog" (fun () ->
        List.iter
          (fun scale ->
            equiv_all_variants
              (Printf.sprintf "gzip@%d" scale)
              (Workloads.Spec2000.source ~scale
                 (Workloads.Spec2000.find "164.gzip")))
          [ 2; 10; 50 ]);
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
        check_str "is the steps limit" "exhausted steps at 1000" f;
        (* A call-free program one step longer than the limit: its last
           block must not take its steps at once. *)
        let src =
          "int main() { int a = input(); int b = a + 2; print(b); return b; }"
        in
        let n = (RI.run_native (front src)).steps in
        let f =
          failure_parity
            ~limits:{ RI.default_limits with RI.max_steps = n - 1 }
            "steps-1" src
        in
        check_str "one step short" (Printf.sprintf "exhausted steps at %d" (n - 1)) f);
    tc "depth limit: identical Resource_exhausted" (fun () ->
        let f =
          failure_parity
            ~limits:{ RI.default_limits with RI.max_depth = 64 }
            "depth" "int f(int n) { return f(n + 1); }\n\
                     int main() { return f(0); }"
        in
        check_str "is the depth limit" "exhausted call depth at 64" f;
        (* f(0) runs at depth 65, one call past the limit. *)
        let f =
          failure_parity
            ~limits:{ RI.default_limits with RI.max_depth = 64 }
            "depth+1"
            "int f(int n) { if (n > 0) { return f(n - 1); } return 0; }\n\
             int main() { return f(64); }"
        in
        check_str "one call too deep" "exhausted call depth at 64" f);
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
    (* One call-free block: a load through an int at step 4, the limit at
       step 6, the block's end at step 9. The error comes first. *)
    tc "a runtime error just before the steps limit wins" (fun () ->
        let open Ir.Types in
        let prog = Ir.Prog.create () in
        let b = Ir.Builder.create prog ~fname:"main" in
        Ir.Builder.switch_to b (Ir.Builder.new_block b);
        let c n = ignore (Ir.Builder.const b n) in
        c 1;
        c 2;
        let x = Ir.Builder.const b 5 in
        ignore (Ir.Builder.load b x);
        List.iter c [ 3; 4; 5; 6 ];
        Ir.Builder.terminate b (Ret (Some (Cst 0)));
        ignore (Ir.Builder.finish b);
        let cp = RI.compile prog (Instr.Item.empty_plan prog) in
        let limits = { RI.default_limits with RI.max_steps = 6 } in
        let fi = run_to_failure ~limits RI.run cp in
        check_str "interp" "runtime_error: load: not a pointer" fi;
        let vm ?limits bp = Vm.Exec.run ?limits bp in
        check_str "vm" fi (run_to_failure ~limits vm (Vm.Lower.lower cp)));
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
  ]

(* ---- lanes ----------------------------------------------------------- *)

let diff_or_fail what (a : RI.outcome) (b : RI.outcome) =
  match outcome_diff a b with
  | [] -> ()
  | ds -> Alcotest.failf "%s: differs on %s" what (String.concat ", " ds)

let vm_run base plan = Vm.Exec.run (Vm.Lower.lower (RI.attach base plan))

(* Every plan as a lane of one execution against the VM reference: the
   derived native outcome against a native VM run, each lane against its
   plan's own VM run. Returns the lane execution. *)
let lanes_match_vm what base plans =
  let r = RI.run_lanes (RI.attach_lanes base plans) in
  check_int (what ^ ": one outcome per lane") (List.length plans)
    (Array.length r.per_lane);
  diff_or_fail (what ^ "/native vs vm") r.native
    (vm_run base (Instr.Item.empty_plan (RI.program base)));
  List.iteri
    (fun k plan ->
      diff_or_fail (Printf.sprintf "%s/lane %d vs vm" what k) r.per_lane.(k)
        (vm_run base plan))
    plans;
  r

(* The same, and each lane and the native outcome against one-lane
   interpreter runs too. *)
let lanes_agree what prog plans =
  let base = RI.compile_base prog in
  let r = lanes_match_vm what base plans in
  diff_or_fail (what ^ "/native") r.native
    (RI.run (RI.attach base (Instr.Item.empty_plan prog)));
  List.iteri
    (fun k plan ->
      diff_or_fail (Printf.sprintf "%s/lane %d vs one-lane interp" what k)
        r.per_lane.(k)
        (RI.run (RI.attach base plan)))
    plans

(* An experiment's prepared lanes against the VM reference. *)
let prepared_matches_vm what (p : Usher.Experiment.prepared) =
  ignore
    (lanes_match_vm what p.base
       (List.map (fun (l : Usher.Experiment.lane) -> l.lplan) p.lanes))

let isolation_src =
  "int main() { int *p = (int*)malloc(1); *p = 5; int y = *p;\n\
  \  print(y); print(y + 1); print(y + 2); print(y + 3); return 0; }"

(* Lane [w] writes shadow [w] to one register, sigma_g[0] and one cell,
   then checks each; at the last output it sets the register to [not w]
   and then to [w] -- the same two actions, in opposite orders in the two
   writers -- and checks it again. *)
let isolation_plan prog ~p ~y ~outs w =
  let module It = Instr.Item in
  let plan = It.empty_plan prog in
  let at lbl acts = List.iter (It.add plan lbl It.Before) acts in
  let o1, o2, o3, o4 =
    match outs with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let check = It.Check (Ir.Types.Var y) in
  at o1
    [ It.Set_var (y, It.Rconst w); It.Set_global (0, Ir.Types.Var y);
      It.Set_mem (p, It.Mconst w); check ];
  at o2 [ It.Set_var (y, It.Rglobal 0); check ];
  at o3 [ It.Set_var (y, It.Rmem p); check ];
  at o4 [ It.Set_var (y, It.Rconst (not w)); It.Set_var (y, It.Rconst w); check ];
  plan

let phi_src =
  "int main() { int c = input(); int x = 0;\n\
  \  if (c > 5) { x = c; } else { x = 2; }\n\
  \  print(x); return 0; }"

(* Five lanes that check x after the phi defining it. Lane 0 gives the
   phi c's shadow, which it sets to F; lane 1 gives it constant arms (T);
   lane 2 never writes x's shadow, so x keeps the defined shadow of a
   fresh frame; lane 3 copies it from a global relay slot nothing wrote,
   which starts defined too; lane 4 gives the phi undefined arms (F).
   Lanes 0, 1 and 4 are three shadow groups of one phi. *)
let phi_plans prog =
  let module It = Instr.Item in
  let instr pred =
    match find_instr pred prog with
    | Some (_, i) -> i
    | None -> Alcotest.fail "instruction not found"
  in
  let input = instr (function Ir.Types.Input _ -> true | _ -> false) in
  let phi = instr (function Ir.Types.Phi _ -> true | _ -> false) in
  let out = instr (function Ir.Types.Output _ -> true | _ -> false) in
  let c = match input.kind with Ir.Types.Input c -> c | _ -> assert false in
  let x, preds =
    match phi.kind with
    | Ir.Types.Phi (x, arms) -> (x, List.map fst arms)
    | _ -> assert false
  in
  let plan acts =
    let plan = It.empty_plan prog in
    List.iter (fun (lbl, pos, act) -> It.add plan lbl pos act) acts;
    It.add plan out.lbl It.Before (It.Check (Ir.Types.Var x));
    plan
  in
  let arms o = It.Set_var (x, It.Rphi (List.map (fun b -> (b, o)) preds)) in
  ( out.lbl,
    [
      plan
        [ (input.lbl, It.After, It.Set_var (c, It.Rconst false));
          (phi.lbl, It.After, arms (Ir.Types.Var c)) ];
      plan [ (phi.lbl, It.After, arms (Ir.Types.Cst 0)) ];
      plan [];
      plan [ (out.lbl, It.Before, It.Set_var (x, It.Rglobal 0)) ];
      plan [ (phi.lbl, It.After, arms Ir.Types.Undef) ];
    ] )

let lane_tests =
  [
    tc "lanes with different phi shadows stay isolated" (fun () ->
        let prog = front phi_src in
        let out, plans = phi_plans prog in
        lanes_agree "phi" prog plans;
        let r = RI.run_lanes (RI.attach_lanes (RI.compile_base prog) plans) in
        List.iteri
          (fun k fires ->
            check_ints
              (Printf.sprintf "lane %d detections" k)
              (if fires then [ out ] else [])
              (labels r.per_lane.(k).detections))
          [ true; false; false; false; true ]);
    tc "lanes writing opposite shadows stay isolated" (fun () ->
        let prog = front isolation_src in
        let dst pred =
          match find_instr pred prog with
          | Some (_, { Ir.Types.kind = Ir.Types.Alloc a; _ }) -> a.adst
          | Some (_, { Ir.Types.kind = Ir.Types.Load (x, _); _ }) -> x
          | _ -> Alcotest.fail "instruction not found"
        in
        let p = dst (function Ir.Types.Alloc _ -> true | _ -> false) in
        let y = dst (function Ir.Types.Load _ -> true | _ -> false) in
        let outs = ref [] in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Output _ -> outs := i.lbl :: !outs
            | _ -> ())
          prog;
        let outs = List.rev !outs in
        let plan = isolation_plan prog ~p ~y ~outs in
        (* lane 0 writes F, lane 1 writes T, lane 2 runs no plan *)
        let plans = [ plan false; plan true; Instr.Item.empty_plan prog ] in
        lanes_agree "isolation" prog plans;
        let r = RI.run_lanes (RI.attach_lanes (RI.compile_base prog) plans) in
        check_bool "F lane: every check fires" true
          (labels r.per_lane.(0).detections = outs);
        check_int "T lane: no check fires" 0
          (Hashtbl.length r.per_lane.(1).detections);
        check_int "plan-less lane: no detections" 0
          (Hashtbl.length r.per_lane.(2).detections);
        check_int "plan-less lane: no shadow ops" 0
          (Runtime.Counters.shadow_ops r.per_lane.(2).counters);
        check_int "native: no detections" 0 (Hashtbl.length r.native.detections));
    tc "too many lanes are rejected, and the VM takes one lane only"
      (fun () ->
        let prog = front isolation_src in
        let base = RI.compile_base prog in
        let plans n = List.init n (fun _ -> Instr.Item.empty_plan prog) in
        ignore (RI.attach_lanes base (plans RI.max_lanes));
        let raises what f =
          match f () with
          | _ -> Alcotest.failf "%s: no Invalid_argument" what
          | exception Invalid_argument _ -> ()
        in
        raises "attach_lanes past max_lanes" (fun () ->
            RI.attach_lanes base (plans (RI.max_lanes + 1)));
        raises "Vm.Lower.lower of two lanes" (fun () ->
            Vm.Lower.lower (RI.attach_lanes base (plans 2)));
        raises "Interp.run of two lanes" (fun () ->
            RI.run (RI.attach_lanes base (plans 2))));
  ]

(* ---- one base, many plans ------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let example_sources () =
  let files dir ext =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  (* The test's deps copy examples/ beside the directory of the test
     executable, so the sources are found from any working directory. *)
  let examples = Filename.concat (Filename.dirname Sys.executable_name) "../examples" in
  files examples ".tc" @ files (Filename.concat examples "corpus") ".c"

(* One base reused for the native plan and all five plans, attached in
   forward and then reverse order, runs every plan exactly as a fresh
   [compile] of it does, on both engines. *)
let base_reuse_agrees what src =
  let prog, a = analyze src in
  let plans =
    ("native", Instr.Item.empty_plan prog)
    :: List.map
         (fun v -> (Usher.Config.variant_name v, fst (Usher.Pipeline.plan_for a v)))
         Usher.Config.all_variants
  in
  let engines cp = [ ("interp", RI.run cp); ("vm", Vm.Exec.run (Vm.Lower.lower cp)) ] in
  let fresh = List.map (fun (n, plan) -> (n, engines (RI.compile prog plan))) plans in
  let base = RI.compile_base prog in
  List.iter
    (fun order ->
      List.iter
        (fun (n, plan) ->
          List.iter2
            (fun (e, o) (_, o') ->
              match outcome_diff o o' with
              | [] -> ()
              | ds ->
                Alcotest.failf "%s/%s on %s: reused base differs on %s" what n e
                  (String.concat ", " ds))
            (engines (RI.attach base plan))
            (List.assoc n fresh))
        order)
    [ plans; List.rev plans ]

let base_tests =
  [
    tc "a reused base runs every plan like a fresh compile: examples" (fun () ->
        List.iter (fun (f, src) -> base_reuse_agrees f src) (example_sources ()));
    tc "a reused base runs every plan like a fresh compile: 200 generated"
      (fun () ->
        for seed = 0 to 199 do
          base_reuse_agrees
            (Printf.sprintf "gen-%d" seed)
            (Audit.Gen.source ~seed ())
        done);
  ]

(* ---- experiments against the VM reference ------------------------- *)

let m_interp_runs = Obs.Metrics.counter "interp.runs"

(* [Experiment.execute] runs the prepared plans as lanes of one
   interpreter execution; everything it reports from that execution must
   be what the VM reference (a native run plus one run per plan) gives.
   Returns the execution's interp.runs delta. *)
let experiment_matches_vm name (p : Usher.Experiment.prepared) =
  let runs0 = Obs.Metrics.counter_value m_interp_runs in
  let e = Usher.Experiment.execute p in
  let runs = Obs.Metrics.counter_value m_interp_runs - runs0 in
  let native = vm_run p.base (Instr.Item.empty_plan p.analysis.prog) in
  check_bool (name ^ ": native counters") true
    (e.native_counters = native.counters);
  check_ints (name ^ ": native outputs") native.outputs e.native_outputs;
  check_ints (name ^ ": ground truth") (labels native.gt_uses)
    (List.sort compare e.gt_uses);
  List.iter2
    (fun (l : Usher.Experiment.lane) (r : Usher.Experiment.variant_result) ->
      let what = name ^ "/" ^ Usher.Config.variant_name r.variant in
      let o = vm_run p.base l.lplan in
      check_ints (what ^ ": detections") (labels o.detections)
        (List.sort compare r.detections);
      check_int (what ^ ": shadow ops")
        (Runtime.Counters.shadow_ops o.counters) r.dynamic_shadow_ops;
      check_bool (what ^ ": slowdown") true
        (r.slowdown_pct
        = Runtime.Costmodel.slowdown_pct ~native:native.counters
            ~instrumented:o.counters ()))
    p.lanes e.results;
  prepared_matches_vm name p;
  runs

let analog ?level ~scale name =
  ( Printf.sprintf "%s@%d" name scale,
    Usher.Experiment.prepare ~name ?level
      (Workloads.Spec2000.source ~scale (Workloads.Spec2000.find name)) )

let experiment_tests =
  [
    tc "164.gzip at scale 100: plans run as lanes of one execution" (fun () ->
        let what, p = analog ~scale:100 "164.gzip" in
        check_int "interp.runs" 1 (experiment_matches_vm what p));
    tc "176.gcc at scale 5: plan runs are lanes of one execution" (fun () ->
        let what, p = analog ~scale:5 "176.gcc" in
        check_int "interp.runs" 1 (experiment_matches_vm what p));
    tc "the 300 programs of fuzz --seed 11" (fun () ->
        for i = 0 to 299 do
          let seed = Audit.Gen.campaign_seed ~seed:11 i in
          prepared_matches_vm
            (Printf.sprintf "program %d" i)
            (Usher.Experiment.prepare (Audit.Gen.source ~size:3 ~seed ()))
        done);
    tc "the examples and the curated corpus" (fun () ->
        List.iter
          (fun (f, src) -> prepared_matches_vm f (Usher.Experiment.prepare src))
          (example_sources ()));
    tc "164.gzip at scales 200 and 750" (fun () ->
        List.iter
          (fun scale ->
            let what, p = analog ~scale "164.gzip" in
            prepared_matches_vm what p)
          [ 200; 750 ]);
    tc "197.parser and 186.crafty at O2: compressed plans" (fun () ->
        List.iter
          (fun name ->
            let what, p = analog ~level:Optim.Pipeline.O2 ~scale:30 name in
            check_bool (what ^ ": compression removed items") true
              (List.exists
                 (fun (l : Usher.Experiment.lane) -> l.lcompressed > 0)
                 p.lanes);
            prepared_matches_vm what p)
          [ "197.parser"; "186.crafty" ]);
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
    prop "lanes ≡ one-plan runs ≡ vm under seeded degradation" 40 (fun seed ->
        (* all five plans, at O0+IM or compressed at O2; some seeds add the
           five again in reverse, ten lanes sharing most actions; the knobs,
           level and doubling vary independently with the seed *)
        let name, knobs =
          List.nth
            (("none", Usher.Config.default_knobs) :: rungs)
            (seed mod (List.length rungs + 1))
        in
        let level =
          if seed / 12 mod 2 = 0 then Optim.Pipeline.O0_IM
          else Optim.Pipeline.O2
        in
        let prog, a = analyze ~knobs ~level (Audit.Gen.source ~seed ()) in
        let plans =
          List.map
            (fun v ->
              let plan, _ = Usher.Pipeline.plan_for a v in
              if level <> Optim.Pipeline.O0_IM then
                ignore
                  (Instr.Compress.fold_constants plan + Instr.Compress.run plan);
              plan)
            Usher.Config.all_variants
        in
        let plans = if seed / 6 mod 2 = 1 then plans @ List.rev plans else plans in
        lanes_agree (Printf.sprintf "gen-%d/%s" seed name) prog plans;
        true);
    prop "vm ≡ interp under tight step limits" 15 (fun seed ->
        (* run both engines into (or just past) the limit wall: whichever
           side of it the program lands on, the outcome or the exception
           must match. Limits that are not round land inside blocks, where
           the interpreter takes a whole call-free block's steps at once;
           a tight object limit puts a trap before some of them. *)
        let prog = front (Audit.Gen.source ~seed ()) in
        let cp = RI.compile prog (Instr.Item.empty_plan prog) in
        let bp = Vm.Lower.lower cp in
        List.iter
          (fun (max_steps, max_objects) ->
            let limits = { RI.default_limits with RI.max_steps; max_objects } in
            match (RI.run ~limits cp, Vm.Exec.run ~limits bp) with
            | oi, ov -> (
              match outcome_diff oi ov with
              | [] -> ()
              | ds ->
                Alcotest.failf "gen-%d at %d: engines disagree on %s" seed max_steps
                  (String.concat ", " ds))
            | exception _ ->
              let fi = run_to_failure ~limits RI.run cp in
              let fv =
                run_to_failure ~limits (fun ?limits bp -> Vm.Exec.run ?limits bp) bp
              in
              check_str (Printf.sprintf "gen-%d failure at %d" seed max_steps) fi fv)
          (List.concat_map
             (fun n -> [ (n, 1_000_000); (n, 3) ])
             [ 1; 5; 13; 37; 200; 333; 1001 ]);
        true);
  ]

let suites =
  [
    ("vm.equiv", unit_tests);
    ("vm.failures", failure_tests);
    ("vm.bytecode", disasm_tests);
    ("vm.lanes", lane_tests);
    ("vm.experiment", experiment_tests);
    ("vm.base", base_tests);
    ("vm.properties", property_tests);
  ]
