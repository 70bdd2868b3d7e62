(* Optimization pipelines mirroring the paper's three configurations:

   - O0+IM: inlining of function-pointer-argument functions, then mem2reg —
     "an excellent setting for obtaining meaningful stack traces" (§4.3);
   - O1: O0+IM plus constant propagation, copy propagation, CSE and DCE;
   - O2: O1 plus LICM and a second round of the scalar pass suite.

   All pipelines leave the program in SSA form. Each pass runs in a trace
   span named as perf's layers name it. *)

type level = O0_IM | O1 | O2

let level_to_string = function O0_IM -> "O0+IM" | O1 -> "O1" | O2 -> "O2"

let scalar_round (p : Ir.Prog.t) : bool =
  let c1 = Constprop.run p in
  let c2 = Copyprop.run p in
  let c3 = Cse.run p in
  let c4 = Dce.run p in
  c1 || c2 || c3 || c4

let span name f = Obs.Trace.with_span ~cat:"optim" name f

let run (level : level) (p : Ir.Prog.t) : unit =
  ignore (span "optim.inline" (fun () -> Inline.run p));
  span "optim.simplify_cfg" (fun () -> Simplify_cfg.run p);
  ignore (span "optim.mem2reg" (fun () -> Mem2reg.run p));
  let scalar () = ignore (span "optim.scalar" (fun () -> scalar_round p)) in
  (match level with
  | O0_IM -> ()
  | O1 -> scalar ()
  | O2 ->
    scalar ();
    ignore (span "optim.licm" (fun () -> Licm.run p));
    scalar ());
  span "ir.verify_ssa" (fun () -> Ir.Verify.check_ssa p)
