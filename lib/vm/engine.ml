(* Engine selection: the tree-walking interpreter (the semantic oracle)
   or the bytecode VM. Both consume the same compiled form — the program's
   [Interp.compile_base], with the plan put on by [Interp.attach] — so a
   program-plan pair has exactly one compiled form and two executors —
   outcome equivalence between them is the differential guarantee
   [test_vm] and the vm-smoke CI job enforce. *)

module I = Runtime.Interp

type t = Interp | Vm

let of_string = function
  | "interp" -> Some Interp
  | "vm" -> Some Vm
  | _ -> None

let name = function Interp -> "interp" | Vm -> "vm"

(* Lowering to bytecode costs time in proportion to the program's size;
   the VM's cheaper dispatch repays it only once the program runs enough
   steps per instruction. Both engines attach each plan to one shared
   base, so the lowering is the only compile cost that differs between
   them. Measured that way (the five plan runs, best of 3, on a 2-core
   x86-64 VM), the break-even on 164.gzip lies between 35 and 50 steps
   per IR instruction: the VM takes 1.35x the interpreter's time at 18.5,
   breaks even at 35 and takes 0.85x at 85. 254.gap (47) runs 5% faster
   on the VM, and 176.gcc (9.4) takes 1.8x as long. 64 sits above the
   break-even, so a program near the line stays on the interpreter. *)
let vm_steps_per_instr = 64

let choose ~steps ~instrs =
  if instrs > 0 && steps >= vm_steps_per_instr * instrs then Vm else Interp

let m_compile_us = Obs.Metrics.counter "vm.compile_us"
let m_dispatch_steps = Obs.Metrics.counter "vm.dispatch_steps"

(* Lower a compiled program, attributing compile time to vm.compile_us. *)
let lower (cp : I.cprog) : Bytecode.prog =
  Obs.Trace.with_span ~cat:"vm" "vm.compile" (fun () ->
      let t0 = Obs.Clock.now_ns () in
      let bp = Lower.lower cp in
      Obs.Metrics.add m_compile_us ((Obs.Clock.now_ns () - t0) / 1000);
      bp)

let exec ?limits (bp : Bytecode.prog) : I.outcome =
  Obs.Trace.with_span ~cat:"vm" "vm.dispatch" (fun () ->
      let out = Exec.run ?limits bp in
      Obs.Metrics.add m_dispatch_steps out.I.steps;
      out)

let run ?limits engine (cp : I.cprog) : I.outcome =
  match engine with
  | Interp -> I.run ?limits cp
  | Vm -> exec ?limits (lower cp)

let run_plan ?limits engine (base : I.base) (plan : Instr.Item.plan) :
    I.outcome =
  run ?limits engine (I.attach base plan)

(* The native run, and the engine for the plan runs. With no [engine]
   named, the native run goes to the interpreter and the plan runs to
   [choose] on its step count. That count is every plan run's count too:
   instrumentation only adds shadow work, never changes which concrete
   statements execute. *)
let run_native_for_plans ?limits ?engine (base : I.base) : I.outcome * t =
  let prog = I.program base in
  let native e = run_plan ?limits e base (Instr.Item.empty_plan prog) in
  match engine with
  | Some e -> (native e, e)
  | None ->
    let o = native Interp in
    (o, choose ~steps:o.steps ~instrs:(Ir.Prog.size prog))
