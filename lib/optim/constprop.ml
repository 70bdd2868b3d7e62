(* Sparse constant propagation and folding on SSA, with branch folding.
   Part of the O1/O2 pipelines. Arithmetic follows the interpreter's
   semantics exactly (63-bit OCaml ints; division by zero yields 0 so that
   folding never changes behaviour). *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (min (b land 63) 62)
  | Shr -> a asr (min (b land 63) 62)
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0

let eval_unop op a =
  match op with Neg -> -a | Not -> lnot a | Lnot -> if a = 0 then 1 else 0

let run_func (f : func) : bool =
  let changed = ref false in
  let const_of : (var, int) Hashtbl.t = Hashtbl.create 64 in
  (* Collect constants to a fixpoint (SSA: one def per var). *)
  let progress = ref true in
  let op_const o =
    match o with
    | Cst n -> Some n
    | Var v -> Hashtbl.find_opt const_of v
    | Undef -> None
  in
  while !progress do
    progress := false;
    Ir.Func.iter_instrs
      (fun _ i ->
        let record x n =
          if Hashtbl.find_opt const_of x <> Some n then begin
            Hashtbl.replace const_of x n;
            progress := true
          end
        in
        match i.kind with
        | Const (x, n) -> record x n
        | Copy (x, o) -> (
          match op_const o with Some n -> record x n | None -> ())
        | Unop (x, u, o) -> (
          match op_const o with
          | Some n -> record x (eval_unop u n)
          | None -> ())
        | Binop (x, b, o1, o2) -> (
          match (op_const o1, op_const o2) with
          | Some a, Some c -> record x (eval_binop b a c)
          | _ -> ())
        | Phi (x, arms) -> (
          let vals = List.map (fun (_, o) -> op_const o) arms in
          match vals with
          | Some n :: rest when List.for_all (fun v -> v = Some n) rest ->
            record x n
          | _ -> ())
        | _ -> ())
      f
  done;
  (* Rewrite uses and fold instructions. *)
  let subst o =
    match o with
    | Var v -> (
      match Hashtbl.find_opt const_of v with Some n -> Cst n | None -> o)
    | Cst _ | Undef -> o
  in
  Ir.Func.iter_instrs
    (fun _ i ->
      let k' =
        match i.kind with
        | Copy (x, _) | Unop (x, _, _) | Binop (x, _, _, _) | Phi (x, _)
          when Hashtbl.mem const_of x ->
          Const (x, Hashtbl.find const_of x)
        | k -> Instr.map_operands subst k
      in
      if k' <> i.kind then begin
        i.kind <- k';
        changed := true
      end)
    f;
  (* Fold constant branches; prune the phi arms of removed edges. *)
  Array.iter
    (fun b ->
      match b.term.tkind with
      | Br (o, b1, b2) -> (
        match subst o with
        | Cst n ->
          let taken, removed = if n <> 0 then (b1, b2) else (b2, b1) in
          b.term.tkind <- Jmp taken;
          changed := true;
          if removed <> taken then
            List.iter
              (fun ins ->
                match ins.kind with
                | Phi (x, arms) ->
                  ins.kind <- Phi (x, List.filter (fun (pb, _) -> pb <> b.bid) arms)
                | _ -> ())
              f.blocks.(removed).instrs
        | Var _ | Undef ->
          if subst o <> o then begin
            b.term.tkind <- Br (subst o, b1, b2);
            changed := true
          end)
      | Ret (Some o) ->
        if subst o <> o then begin
          b.term.tkind <- Ret (Some (subst o));
          changed := true
        end
      | Ret None | Jmp _ -> ())
    f.blocks;
  !changed

let run (p : P.t) : bool =
  let changed = ref false in
  P.map_funcs
    (fun f ->
      if run_func f then changed := true;
      Simplify_cfg.remove_unreachable f)
    p;
  !changed
