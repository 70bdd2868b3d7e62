(* Test-only references for the O1/O2 scalar passes, kept as they were
   before they were made dense: constant propagation rescanning the
   function until nothing changes, copy propagation and dead-code
   elimination over per-function hash tables, and CSE over a polymorphic
   hash table with an option per instruction. Constant and copy
   propagation compare whole instruction kinds with polymorphic [<>].
   The equivalence tests compare the library's passes against these. *)

open Ir.Types
module P = Ir.Prog
module Instr = Ir.Instr

module Constprop = struct
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
        Optim.Simplify_cfg.remove_unreachable f)
      p;
    !changed
end

module Copyprop = struct
  let run_func (f : func) : bool =
    let changed = ref false in
    let target : (var, operand) Hashtbl.t = Hashtbl.create 64 in
    Ir.Func.iter_instrs
      (fun _ i ->
        match i.kind with
        | Copy (x, o) -> Hashtbl.replace target x o
        | Phi (x, [ (_, o) ]) -> Hashtbl.replace target x o
        | _ -> ())
      f;
    let rec resolve o =
      match o with
      | Var v -> (
        match Hashtbl.find_opt target v with
        | Some o' when o' <> Var v -> resolve o'
        | _ -> o)
      | Cst _ | Undef -> o
    in
    Ir.Func.iter_instrs
      (fun _ i ->
        let k' = Instr.map_operands resolve i.kind in
        if k' <> i.kind then begin
          i.kind <- k';
          changed := true
        end)
      f;
    Array.iter
      (fun b ->
        let t' = Instr.map_term_operands resolve b.term.tkind in
        if t' <> b.term.tkind then begin
          b.term.tkind <- t';
          changed := true
        end)
      f.blocks;
    !changed

  let run (p : P.t) : bool =
    P.fold_funcs (fun acc f -> run_func f || acc) false p
end

module Cse = struct
  type key =
    | Kconst of int
    | Kunop of unop * operand
    | Kbinop of binop * operand * operand
    | Kfield of var * int
    | Kindex of var * operand
    | Kglobal of string
    | Kfunc of fname

  let key_of (k : instr_kind) : key option =
    match k with
    | Const (_, n) -> Some (Kconst n)
    | Unop (_, u, o) -> Some (Kunop (u, o))
    | Binop (_, b, o1, o2) ->
      (* Normalize commutative operands. *)
      let commutative = match b with
        | Add | Mul | And | Or | Xor | Eq | Ne -> true
        | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge -> false
      in
      if commutative && compare o2 o1 < 0 then Some (Kbinop (b, o2, o1))
      else Some (Kbinop (b, o1, o2))
    | Field_addr (_, y, n) -> Some (Kfield (y, n))
    | Index_addr (_, y, o) -> Some (Kindex (y, o))
    | Global_addr (_, g) -> Some (Kglobal g)
    | Func_addr (_, f) -> Some (Kfunc f)
    | Copy _ | Alloc _ | Load _ | Store _ | Call _ | Phi _ | Output _ | Input _ ->
      None

  let run_func (f : func) : bool =
    let changed = ref false in
    let dom = Analysis.Dominance.compute f in
    let avail : (key, var) Hashtbl.t = Hashtbl.create 64 in
    let rec walk b =
      let added = ref [] in
      List.iter
        (fun i ->
          match key_of i.kind with
          | Some key -> (
            match Hashtbl.find_opt avail key with
            | Some earlier -> (
              match Ir.Instr.def_of i.kind with
              | Some d ->
                i.kind <- Copy (d, Var earlier);
                changed := true
              | None -> ())
            | None -> (
              match Ir.Instr.def_of i.kind with
              | Some d ->
                Hashtbl.add avail key d;
                added := key :: !added
              | None -> ()))
          | None -> ())
        f.blocks.(b).instrs;
      List.iter walk (Analysis.Dominance.children dom b);
      List.iter (fun k -> Hashtbl.remove avail k) !added
    in
    if Array.length f.blocks > 0 then walk 0;
    !changed

  let run (p : P.t) : bool =
    P.fold_funcs (fun acc f -> run_func f || acc) false p
end

module Dce = struct
  let run_func (f : func) : bool =
    let live : (var, unit) Hashtbl.t = Hashtbl.create 64 in
    let def_uses : (var, var list) Hashtbl.t = Hashtbl.create 64 in
    (* def -> variables it uses *)
    Ir.Func.iter_instrs
      (fun _ i ->
        match Instr.def_of i.kind with
        | Some d -> Hashtbl.replace def_uses d (Instr.uses_of i.kind)
        | None -> ())
      f;
    let work = Queue.create () in
    let mark v =
      if not (Hashtbl.mem live v) then begin
        Hashtbl.replace live v ();
        Queue.push v work
      end
    in
    Ir.Func.iter_instrs
      (fun _ i ->
        if Instr.has_side_effect i.kind then begin
          List.iter mark (Instr.uses_of i.kind);
          match Instr.def_of i.kind with Some d -> mark d | None -> ()
        end)
      f;
    Array.iter
      (fun b -> List.iter mark (Instr.term_uses b.term.tkind))
      f.blocks;
    while not (Queue.is_empty work) do
      let v = Queue.pop work in
      List.iter mark (Option.value ~default:[] (Hashtbl.find_opt def_uses v))
    done;
    let changed = ref false in
    Array.iter
      (fun b ->
        let keep =
          List.filter
            (fun i ->
              Instr.has_side_effect i.kind
              ||
              match Instr.def_of i.kind with
              | Some d -> Hashtbl.mem live d
              | None -> true)
            b.instrs
        in
        if List.length keep <> List.length b.instrs then begin
          b.instrs <- keep;
          changed := true
        end)
      f.blocks;
    !changed

  let run (p : P.t) : bool =
    P.fold_funcs (fun acc f -> run_func f || acc) false p
end

let scalar_round (p : P.t) : bool =
  let c1 = Constprop.run p in
  let c2 = Copyprop.run p in
  let c3 = Cse.run p in
  let c4 = Dce.run p in
  c1 || c2 || c3 || c4

(* [Optim.Pipeline.run] with these passes and no spans. *)
let run (level : Optim.Pipeline.level) (p : P.t) : unit =
  ignore (Optim.Inline.run p);
  Optim.Simplify_cfg.run p;
  ignore (Optim.Mem2reg.run p);
  (match level with
  | O0_IM -> ()
  | O1 -> ignore (scalar_round p)
  | O2 ->
    ignore (scalar_round p);
    ignore (Optim.Licm.run p);
    ignore (scalar_round p));
  Ir.Verify.check_ssa p
