(* SSA copy propagation: uses of [x] where [x := y] are replaced by [y]
   (safe in SSA: y's definition dominates the copy, which dominates x's
   uses). Single-arm phis are treated as copies. Dead copies are left for
   DCE. Each copy's source is held in a var-indexed array, stamped per
   function, that outlives the program (DESIGN.md §13); an instruction is
   rebuilt only when one of its uses has a copy to chase. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

type scratch = {
  mutable target : operand array;  (* var -> its copy's source *)
  mutable copied : int array;      (* var -> [stamp] when [target] holds *)
  mutable stamp : int;
}

let kept = Ir.Scratch.make (fun () -> { target = [||]; copied = [||]; stamp = 0 })

let run_func sc (f : func) : bool =
  sc.stamp <- sc.stamp + 1;
  let any = ref false in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | Copy (x, o) | Phi (x, [ (_, o) ]) ->
        sc.target.(x) <- o;
        sc.copied.(x) <- sc.stamp;
        any := true
      | _ -> ())
    f;
  (* Does [Var v] resolve to something else? *)
  let moves v =
    sc.copied.(v) = sc.stamp
    && match sc.target.(v) with Var w -> w <> v | Cst _ | Undef -> true
  in
  let rec resolve o =
    match o with Var v when moves v -> resolve sc.target.(v) | Var _ | Cst _ | Undef -> o
  in
  let to_var v = moves v && match resolve sc.target.(v) with Var _ -> true | Cst _ | Undef -> false in
  let changed = ref false in
  if !any then
    Array.iter
      (fun b ->
        List.iter
          (fun i ->
            if Instr.rewrites ~arg:moves ~ptr:to_var i.kind then begin
              i.kind <- Instr.map_operands resolve i.kind;
              changed := true
            end)
          b.instrs;
        match b.term.tkind with
        | Br (Var v, _, _) | Ret (Some (Var v)) when moves v ->
          b.term.tkind <- Instr.map_term_operands resolve b.term.tkind;
          changed := true
        | Br _ | Jmp _ | Ret _ -> ())
      f.blocks;
  !changed

let run (p : P.t) : bool =
  let sc = Ir.Scratch.get kept in
  sc.target <- Ir.Scratch.grow sc.target (P.nvars p) Undef;
  sc.copied <- Ir.Scratch.grow sc.copied (P.nvars p) 0;
  P.fold_funcs (fun acc f -> run_func sc f || acc) false p
