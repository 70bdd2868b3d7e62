(* Sparse constant propagation and folding on SSA, with branch folding.
   Part of the O1/O2 pipelines; arithmetic is the IR's ([Ir.Types]).

   A variable is constant when its definition is a constant, a copy, unop
   or binop of constants, or a phi whose arms are all the same constant:
   the least fixpoint, found by one sweep in block order and a def-use
   worklist. A definition reading a variable not yet known waits on it
   and is visited again once it is, so each variable is settled once. The
   tables are indexed by variable, outlive the program and are stamped per
   function (DESIGN.md §13). *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

(* A variable's state is [stamp * 4 + code] for the function of the
   current stamp; an entry from any other function reads [pending]. *)
let known = 0 and pending = 1 and never = 2

type scratch = {
  mutable state : int array;
  mutable value : int array;           (* var -> its constant, once known *)
  mutable waiting : instr list array;  (* var -> defs to visit when known,
                                          while its state is stamped *)
  mutable stamp : int;
  mutable folded : bool;               (* the function folded a branch *)
}

let kept =
  Ir.Scratch.make (fun () ->
      { state = [||]; value = [||]; waiting = [||]; stamp = 0; folded = false })

let code sc v =
  let s = sc.state.(v) in
  if s lsr 2 = sc.stamp then s land 3 else pending

let set sc v c = sc.state.(v) <- (sc.stamp lsl 2) lor c
let num sc = function Cst n -> n | Var v -> sc.value.(v) | Undef -> 0

(* Is [o] known? If it never will be, neither will [x], which [i]
   defines; while it may be, [i] waits on it. *)
let ready sc i x o =
  match o with
  | Cst _ -> true
  | Undef -> set sc x never; false
  | Var v ->
    let c = code sc v in
    if c = never then set sc x never
    else if c = pending then
      if sc.state.(v) lsr 2 = sc.stamp then sc.waiting.(v) <- i :: sc.waiting.(v)
      else begin
        set sc v pending;
        sc.waiting.(v) <- [ i ]
      end;
    c = known

let rec visit sc (i : instr) =
  match i.kind with
  | Const (x, n) -> found sc x n
  | Copy (x, o) -> if ready sc i x o then found sc x (num sc o)
  | Unop (x, u, o) -> if ready sc i x o then found sc x (eval_unop u (num sc o))
  | Binop (x, b, o1, o2) ->
    if ready sc i x o1 && ready sc i x o2 then
      found sc x (eval_binop b (num sc o1) (num sc o2))
  | Phi (x, (_, o) :: arms) -> if ready sc i x o then phi sc i x (num sc o) arms
  | k -> ( match Instr.def_var k with -1 -> () | x -> set sc x never)

and phi sc i x n = function
  | [] -> found sc x n
  | (_, o) :: arms ->
    if ready sc i x o then
      if num sc o = n then phi sc i x n arms else set sc x never

and found sc x n =
  if code sc x <> known then begin
    let defs = if sc.state.(x) lsr 2 = sc.stamp then sc.waiting.(x) else [] in
    set sc x known;
    sc.value.(x) <- n;
    List.iter (visit sc) defs
  end

let run_func sc (f : func) : bool =
  sc.stamp <- sc.stamp + 1;
  sc.folded <- false;
  List.iter (fun v -> set sc v never) f.params;
  Ir.Func.iter_instrs (fun _ i -> visit sc i) f;
  (* Rewrite uses and fold instructions. *)
  let is_known v = code sc v = known in
  let subst o =
    match o with Var v when is_known v -> Cst sc.value.(v) | Var _ | Cst _ | Undef -> o
  in
  let changed = ref false in
  Ir.Func.iter_instrs
    (fun _ i ->
      match i.kind with
      | (Copy (x, _) | Unop (x, _, _) | Binop (x, _, _, _) | Phi (x, _))
        when is_known x ->
        i.kind <- Const (x, sc.value.(x));
        changed := true
      | k ->
        if Instr.rewrites ~arg:is_known ~ptr:(fun _ -> false) k then begin
          i.kind <- Instr.map_operands subst k;
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
          sc.folded <- true;
          if removed <> taken then
            List.iter
              (fun ins ->
                match ins.kind with
                | Phi (x, arms) when List.exists (fun (pb, _) -> pb = b.bid) arms ->
                  ins.kind <- Phi (x, List.filter (fun (pb, _) -> pb <> b.bid) arms)
                | _ -> ())
              f.blocks.(removed).instrs
        | Var _ | Undef -> ())
      | Ret (Some (Var v)) when is_known v ->
        b.term.tkind <- Ret (Some (Cst sc.value.(v)));
        changed := true
      | Ret _ | Jmp _ -> ())
    f.blocks;
  !changed

let run (p : P.t) : bool =
  let sc = Ir.Scratch.get kept in
  let n = P.nvars p in
  sc.state <- Ir.Scratch.grow sc.state n 0;
  sc.value <- Ir.Scratch.grow sc.value n 0;
  sc.waiting <- Ir.Scratch.grow sc.waiting n [];
  let changed = ref false in
  P.map_funcs
    (fun f ->
      if run_func sc f then changed := true;
      (* Blocks come in reachable (mem2reg removes the others, and no
         later pass makes one), so only a folded branch leaves one. *)
      if sc.folded then Simplify_cfg.remove_unreachable f else f)
    p;
  !changed
