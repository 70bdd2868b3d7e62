(* Full shadow instrumentation — the MSan baseline (§2.2): every value is
   shadowed, every statement gets a shadow statement, every critical
   operation gets a check. This is exactly the ⊥ rule set of Figure 7
   applied to every node. *)

open Ir.Types
module P = Ir.Prog

let op_shadow (o : operand) : Item.shadow_rhs =
  match o with
  | Var v -> Item.Rvar v
  | Cst _ -> Item.Rconst true
  | Undef -> Item.Rconst false

let conj_of (ops : operand list) : Item.shadow_rhs =
  let vars = List.filter_map (function Var v -> Some v | _ -> None) ops in
  if List.exists (function Undef -> true | _ -> false) ops then Item.Rconst false
  else if vars = [] then Item.Rconst true
  else Item.Rconj vars

let check_if_var (plan : Item.plan) lbl (o : operand) =
  match o with
  | Var _ | Undef -> Item.add plan lbl Item.Before (Item.Check o)
  | Cst _ -> ()

(* The shadow update of a top-level definition: [⊥-Assign], [⊥-Load] and
   the destination side of [⊥-Ret], [rs] being the return relay slot;
   [None] where the statement defines no register. *)
let def_action rs (k : instr_kind) : Item.action option =
  let set x rhs = Some (Item.Set_var (x, rhs)) in
  match k with
  | Const (x, _) | Global_addr (x, _) | Func_addr (x, _) | Input x ->
    set x (Item.Rconst true)
  | Alloc a -> set a.adst (Item.Rconst true)
  | Copy (x, o) -> set x (op_shadow o)
  | Unop (x, _, o) -> set x (conj_of [ o ])
  | Binop (x, _, o1, o2) -> set x (conj_of [ o1; o2 ])
  | Phi (x, arms) -> set x (Item.Rphi arms)
  | Field_addr (x, y, _) -> set x (conj_of [ Var y ])
  | Index_addr (x, y, o) -> set x (conj_of [ Var y; o ])
  | Load (x, y) -> set x (Item.Rmem y)
  | Call { cdst = Some x; _ } -> set x (Item.Rglobal rs)
  | Call { cdst = None; _ } | Store _ | Output _ -> None

let instrument_func (plan : Item.plan) (f : func) : unit =
  let rs = plan.ret_slot in
  (* [⊥-Para] destination side. *)
  List.iteri
    (fun i prm -> Item.add_entry plan f.fname (Item.Set_var (prm, Item.Rglobal i)))
    f.params;
  Ir.Func.iter_instrs
    (fun _ i ->
      let lbl = i.lbl in
      (match i.kind with
      | Load (_, y) -> (* [⊥-Check] on the pointer *) check_if_var plan lbl (Var y)
      | Store (x, _) -> check_if_var plan lbl (Var x)
      | Call { cargs; _ } ->
        (* [⊥-Para] source side. *)
        List.iteri
          (fun idx arg -> Item.add plan lbl Before (Item.Set_global (idx, arg)))
          cargs
      | _ -> ());
      Option.iter (Item.add plan lbl After) (def_action rs i.kind);
      match i.kind with
      | Alloc a ->
        (* [⊥-Alloc]: the object's shadow set to T or F. *)
        Item.add plan lbl After (Item.Set_mem_object (a.adst, a.initialized))
      | Store (x, o) -> Item.add plan lbl After (Item.Set_mem (x, Item.Mop o))
      | _ -> ())
    f;
  Array.iter
    (fun b ->
      match b.term.tkind with
      | Br (o, _, _) -> check_if_var plan b.term.tlbl o
      | Ret o ->
        (* [⊥-Ret] source side: relay the return value's shadow. *)
        let sh = match o with Some op -> op | None -> Cst 0 in
        Item.add plan b.term.tlbl Before (Item.Set_global (rs, sh))
      | Jmp _ -> ())
    f.blocks

let build (p : P.t) : Item.plan =
  let plan = Item.empty_plan p in
  P.iter_funcs (instrument_func plan) p;
  plan
