(* The two executors of a compiled program: the tree-walking interpreter
   and the bytecode VM. Both consume the same compiled form — the
   program's [Interp.compile_base] with plans put on by [Interp.attach] —
   so a program-plan pair has exactly one compiled form and two executors.

   The interpreter is the production engine. It runs every plan of a
   program in one execution, one lane per plan, and derives the native
   outcome from that same execution: instrumentation never changes which
   concrete statements execute. `usherc bench`, `run` and the
   differential oracle behind `audit` and `fuzz` all take this path. The
   VM is the reference: it runs the native program and then each plan in
   its own execution, one lane each. Outcome equivalence between the two
   — lane by lane — is the differential guarantee [test_vm] and the
   fuzz-smoke CI job enforce. [run_plan] is also the oracle's fallback
   when a lane execution raises: one run per plan tells which plan
   trapped. *)

module I = Runtime.Interp

type t = Interp | Vm

let of_string = function
  | "interp" -> Some Interp
  | "vm" -> Some Vm
  | _ -> None

let name = function Interp -> "interp" | Vm -> "vm"

let m_dispatch_steps = Obs.Metrics.counter "vm.dispatch_steps"

let run_plan ?limits engine (base : I.base) (plan : Instr.Item.plan) :
    I.outcome =
  let cp = I.attach base plan in
  match engine with
  | Interp -> I.run ?limits cp
  | Vm ->
    let bp =
      Obs.Trace.with_span ~cat:"vm" "vm.compile" (fun () -> Lower.lower cp)
    in
    Obs.Trace.with_span ~cat:"vm" "vm.dispatch" (fun () ->
        let out = Exec.run ?limits bp in
        Obs.Metrics.add m_dispatch_steps out.I.steps;
        out)

(* The native outcome and one outcome per plan, in order. *)
let run_plans ?limits engine (base : I.base) (plans : Instr.Item.plan list) :
    I.outcome * I.outcome list =
  match engine with
  | Interp ->
    let r = I.run_lanes ?limits (I.attach_lanes base plans) in
    (r.native, Array.to_list r.per_lane)
  | Vm ->
    let native =
      run_plan ?limits Vm base (Instr.Item.empty_plan (I.program base))
    in
    (native, List.map (run_plan ?limits Vm base) plans)
