(* Dead-code elimination on SSA: pure instructions whose results never reach
   a side-effecting instruction or terminator are deleted. Dead loads are
   removed too — exactly the mechanism by which LLVM's higher optimization
   levels "hide some uses of undefined values" (§4.6): a deleted load takes
   its critical-operation check with it.

   Liveness flows from the operands of side effects and terminators back
   through a var -> definition array, by an int stack. The arrays are
   indexed by variable, outlive the program and are stamped per function
   (DESIGN.md §13); a block is rebuilt only when something in it dies. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

type scratch = {
  mutable def : instr_kind array;  (* var -> its definition *)
  mutable defined : int array;     (* var -> [stamp] when [def] holds *)
  mutable live : int array;        (* var -> [stamp] when live *)
  mutable stack : var array;       (* live variables not yet followed *)
  mutable stamp : int;
}

let kept =
  Ir.Scratch.make (fun () ->
      { def = [||]; defined = [||]; live = [||]; stack = [||]; stamp = 0 })

let run_func sc (f : func) : bool =
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let top = ref 0 in
  let mark v =
    if sc.live.(v) <> stamp then begin
      sc.live.(v) <- stamp;
      sc.stack.(!top) <- v;
      incr top
    end
  in
  Array.iter
    (fun b ->
      List.iter
        (fun i ->
          let d = Instr.def_var i.kind in
          if d >= 0 then begin
            sc.def.(d) <- i.kind;
            sc.defined.(d) <- stamp
          end;
          if Instr.has_side_effect i.kind then begin
            Instr.iter_uses mark i.kind;
            if d >= 0 then mark d
          end)
        b.instrs;
      match b.term.tkind with
      | Br (Var v, _, _) | Ret (Some (Var v)) -> mark v
      | Br _ | Jmp _ | Ret _ -> ())
    f.blocks;
  while !top > 0 do
    decr top;
    let v = sc.stack.(!top) in
    if sc.defined.(v) = stamp then Instr.iter_uses mark sc.def.(v)
  done;
  let keep i =
    Instr.has_side_effect i.kind
    || let d = Instr.def_var i.kind in
       d < 0 || sc.live.(d) = stamp
  in
  let changed = ref false in
  Array.iter
    (fun b ->
      let kept = Ir.Func.filter_shared keep b.instrs in
      if kept != b.instrs then begin
        b.instrs <- kept;
        changed := true
      end)
    f.blocks;
  !changed

let run (p : P.t) : bool =
  let sc = Ir.Scratch.get kept in
  let n = P.nvars p in
  sc.def <- Ir.Scratch.grow sc.def n (Input (-1));
  sc.defined <- Ir.Scratch.grow sc.defined n 0;
  sc.live <- Ir.Scratch.grow sc.live n 0;
  sc.stack <- Ir.Scratch.grow sc.stack n 0;
  P.fold_funcs (fun acc f -> run_func sc f || acc) false p
