(* Engine selection: the tree-walking interpreter (the semantic oracle)
   or the bytecode VM. Both consume the same [Interp.compile] output, so a
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
   steps per instruction. The measured break-even on the benchmark
   programs is 45-50 steps per IR instruction; 64 sits above it, so a
   program near the line stays on the interpreter. *)
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

let run_plan ?limits engine (prog : Ir.Prog.t) (plan : Instr.Item.plan) :
    I.outcome =
  match engine with
  | Interp -> I.run_plan ?limits prog plan
  | Vm -> run ?limits Vm (I.compile prog plan)

(* The native run, and the engine for the plan runs. With no [engine]
   named, the native run goes to the interpreter and the plan runs to
   [choose] on its step count. That count is every plan run's count too:
   instrumentation only adds shadow work, never changes which concrete
   statements execute. *)
let run_native_for_plans ?limits ?engine (prog : Ir.Prog.t) : I.outcome * t =
  let native e = run_plan ?limits e prog (Instr.Item.empty_plan prog) in
  match engine with
  | Some e -> (native e, e)
  | None ->
    let o = native Interp in
    (o, choose ~steps:o.steps ~instrs:(Ir.Prog.size prog))
