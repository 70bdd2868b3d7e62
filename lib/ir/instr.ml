(* Structural queries over instructions: defined variable, used operands. *)

open Types

let def_var (k : instr_kind) : var =
  match k with
  | Const (x, _) | Copy (x, _) | Unop (x, _, _) | Binop (x, _, _, _)
  | Load (x, _) | Field_addr (x, _, _) | Index_addr (x, _, _)
  | Global_addr (x, _) | Func_addr (x, _) | Input x | Phi (x, _) ->
    x
  | Alloc a -> a.adst
  | Store (_, _) | Output _ | Call { cdst = None; _ } -> -1
  | Call { cdst = Some x; _ } -> x

let def_of (k : instr_kind) : var option =
  match def_var k with -1 -> None | x -> Some x

let operand_vars (o : operand) : var list =
  match o with Var v -> [ v ] | Cst _ | Undef -> []

(** All top-level variables read by the instruction (including phi inputs and
    pointer operands of loads/stores). *)
let uses_of (k : instr_kind) : var list =
  match k with
  | Const (_, _) -> []
  | Copy (_, o) | Unop (_, _, o) -> operand_vars o
  | Binop (_, _, o1, o2) -> operand_vars o1 @ operand_vars o2
  | Alloc a -> (match a.asize with Array_of o -> operand_vars o | Fields _ -> [])
  | Load (_, y) -> [ y ]
  | Store (x, o) -> x :: operand_vars o
  | Field_addr (_, y, _) -> [ y ]
  | Index_addr (_, y, o) -> y :: operand_vars o
  | Global_addr (_, _) | Func_addr (_, _) | Input _ -> []
  | Call c ->
    let base = match c.callee with Indirect v -> [ v ] | Direct _ -> [] in
    base @ List.concat_map operand_vars c.cargs
  | Phi (_, ins) -> List.concat_map (fun (_, o) -> operand_vars o) ins
  | Output o -> operand_vars o

let use g = function Var v -> g v | Cst _ | Undef -> ()
let rec use_all g = function [] -> () | o :: r -> use g o; use_all g r
let rec use_arms g = function [] -> () | (_, o) :: r -> use g o; use_arms g r

(** [uses_of] without building the list (or a closure): [g] sees the same
    variables in the same order. *)
let iter_uses g (k : instr_kind) : unit =
  match k with
  | Const (_, _) | Global_addr (_, _) | Func_addr (_, _) | Input _ -> ()
  | Copy (_, o) | Unop (_, _, o) | Output o -> use g o
  | Binop (_, _, o1, o2) -> use g o1; use g o2
  | Alloc a -> (match a.asize with Array_of o -> use g o | Fields _ -> ())
  | Load (_, y) | Field_addr (_, y, _) -> g y
  | Store (x, o) | Index_addr (_, x, o) -> g x; use g o
  | Call c ->
    (match c.callee with Indirect v -> g v | Direct _ -> ());
    use_all g c.cargs
  | Phi (_, ins) -> use_arms g ins

let term_uses (t : term_kind) : var list =
  match t with
  | Br (o, _, _) -> operand_vars o
  | Jmp _ -> []
  | Ret o -> (match o with Some o -> operand_vars o | None -> [])

let term_succs (t : term_kind) : blockid list =
  match t with Br (_, b1, b2) -> [ b1; b2 ] | Jmp b -> [ b ] | Ret _ -> []

(** Substitute operands in an instruction kind. [fo] rewrites used operands;
    the defined variable is left alone. *)
let map_operands fo (k : instr_kind) : instr_kind =
  match k with
  | Const _ | Global_addr _ | Func_addr _ | Input _ -> k
  | Copy (x, o) -> Copy (x, fo o)
  | Unop (x, u, o) -> Unop (x, u, fo o)
  | Binop (x, b, o1, o2) -> Binop (x, b, fo o1, fo o2)
  | Alloc a ->
    let asize =
      match a.asize with Array_of o -> Array_of (fo o) | Fields _ -> a.asize
    in
    Alloc { a with asize }
  | Load (x, y) -> (
    match fo (Var y) with
    | Var y' -> Load (x, y')
    | Cst _ | Undef -> k (* pointer operands must stay variables *))
  | Store (x, o) -> (
    match fo (Var x) with
    | Var x' -> Store (x', fo o)
    | Cst _ | Undef -> Store (x, fo o))
  | Field_addr (x, y, n) -> (
    match fo (Var y) with
    | Var y' -> Field_addr (x, y', n)
    | Cst _ | Undef -> k)
  | Index_addr (x, y, o) -> (
    match fo (Var y) with
    | Var y' -> Index_addr (x, y', fo o)
    | Cst _ | Undef -> Index_addr (x, y, fo o))
  | Call c ->
    let callee =
      match c.callee with
      | Indirect v -> (
        match fo (Var v) with Var v' -> Indirect v' | Cst _ | Undef -> c.callee)
      | Direct _ -> c.callee
    in
    Call { c with callee; cargs = List.map fo c.cargs }
  | Phi (x, ins) -> Phi (x, List.map (fun (b, o) -> (b, fo o)) ins)
  | Output o -> Output (fo o)

let moves arg = function Var v -> arg v | Cst _ | Undef -> false
let rec any_moves arg = function [] -> false | o :: r -> moves arg o || any_moves arg r
let rec arm_moves arg = function
  | [] -> false
  | (_, o) :: r -> moves arg o || arm_moves arg r

let rewrites ~arg ~ptr (k : instr_kind) : bool =
  match k with
  | Const _ | Global_addr _ | Func_addr _ | Input _ -> false
  | Copy (_, o) | Unop (_, _, o) | Output o -> moves arg o
  | Binop (_, _, o1, o2) -> moves arg o1 || moves arg o2
  | Alloc a -> (match a.asize with Array_of o -> moves arg o | Fields _ -> false)
  | Load (_, y) | Field_addr (_, y, _) -> ptr y
  | Store (x, o) | Index_addr (_, x, o) -> ptr x || moves arg o
  | Call c ->
    (match c.callee with Indirect v -> ptr v | Direct _ -> false)
    || any_moves arg c.cargs
  | Phi (_, arms) -> arm_moves arg arms

let map_term_operands fo (t : term_kind) : term_kind =
  match t with
  | Br (o, b1, b2) -> Br (fo o, b1, b2)
  | Jmp _ -> t
  | Ret (Some o) -> Ret (Some (fo o))
  | Ret None -> t

(** Does the instruction have an observable effect besides its def? Used by
    dead-code elimination. *)
let has_side_effect (k : instr_kind) : bool =
  match k with
  | Store _ | Call _ | Output _ | Input _ | Alloc _ -> true
  | Const _ | Copy _ | Unop _ | Binop _ | Load _ | Field_addr _ | Index_addr _
  | Global_addr _ | Func_addr _ | Phi _ ->
    false
