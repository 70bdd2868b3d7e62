(* Dominator-scoped common-subexpression elimination (a lightweight GVN):
   walking the dominator tree with a scoped table of available pure
   expressions, later recomputations are rewritten to copies of the earlier
   result. Loads are *not* CSE'd (memory may change between them); address
   computations, arithmetic and constants are.

   The table is open addressing over one int array (DESIGN.md §13): a
   key is a shape code and two ints, plus the name of a global or
   function address, and its slot holds them and the variable computing
   the key. A function gets at least twice as many slots as it has
   instructions, so the table never fills and stays small enough to be
   cached; the array outlives the program. A block's entries leave,
   newest first, once its dominator subtree is done: that undoes each
   insertion exactly, so leaving just empties the slot, and the table is
   empty between functions. A function of one block needs no dominator
   tree. *)

open Ir.Types
module P = Ir.Prog

type table = {
  mutable bits : int;            (* log2 of the function's slot count *)
  mutable cells : int array;     (* per slot: shape (0 if empty), a, b, var *)
  mutable name : string array;   (* per slot, for global and function addresses *)
  mutable filled : int array;    (* slots filled, in order *)
  mutable nfilled : int;
}

let kept =
  Ir.Scratch.make (fun () -> { bits = 0; cells = [||]; name = [||]; filled = [||]; nfilled = 0 })

let kind = function Cst _ -> 1 | Var _ -> 2 | Undef -> 3
let value = function Cst n | Var n -> n | Undef -> 0
let named shape = shape land 7 >= 6

(* The variable already computing the key, or [-1] after making [d]
   compute it. *)
let find_or_add t shape a b name d =
  let h = (((shape * 31) + a) * 31) + b + if named shape then Hashtbl.hash name else 0 in
  let mask = (1 lsl t.bits) - 1 and c = t.cells in
  let i = ref ((h * 0x278DDE6E5FD29F05) lsr (63 - t.bits) land mask) in
  while
    c.(4 * !i) <> 0
    && not (c.(4 * !i) = shape && c.((4 * !i) + 1) = a && c.((4 * !i) + 2) = b
            && ((not (named shape)) || String.equal t.name.(!i) name))
  do
    i := (!i + 1) land mask
  done;
  let i = !i in
  if c.(4 * i) <> 0 then c.((4 * i) + 3)
  else begin
    c.(4 * i) <- shape;
    c.((4 * i) + 1) <- a;
    c.((4 * i) + 2) <- b;
    c.((4 * i) + 3) <- d;
    if named shape then t.name.(i) <- name;
    t.filled.(t.nfilled) <- i;
    t.nfilled <- t.nfilled + 1;
    -1
  end

let commutative = function
  | Add | Mul | And | Or | Xor | Eq | Ne -> true
  | Sub | Div | Rem | Shl | Shr | Lt | Le | Gt | Ge -> false

(* Orders commutative operands: Undef, then constants, then variables. *)
let less a b = kind a < kind b || (kind a = kind b && value a < value b)

let available t (k : instr_kind) =
  let shape tag op o1 o2 = tag lor (op lsl 3) lor (kind o1 lsl 8) lor (kind o2 lsl 10) in
  match k with
  | Const (d, n) -> find_or_add t 1 n 0 "" d
  | Unop (d, u, o) -> find_or_add t (shape 2 (unop_index u) o Undef) (value o) 0 "" d
  | Binop (d, op, o1, o2) ->
    let o1, o2 = if commutative op && less o2 o1 then (o2, o1) else (o1, o2) in
    find_or_add t (shape 3 (binop_index op) o1 o2) (value o1) (value o2) "" d
  | Field_addr (d, y, n) -> find_or_add t 4 y n "" d
  | Index_addr (d, y, o) -> find_or_add t (shape 5 0 o Undef) y (value o) "" d
  | Global_addr (d, g) -> find_or_add t 6 0 0 g d
  | Func_addr (d, f) -> find_or_add t 7 0 0 f d
  | Copy _ | Alloc _ | Load _ | Store _ | Call _ | Phi _ | Output _ | Input _ -> -1

let run_func t (f : func) : bool =
  let n = Array.fold_left (fun n b -> n + List.length b.instrs) 0 f.blocks in
  t.bits <- 4;
  while 1 lsl t.bits < 2 * n do t.bits <- t.bits + 1 done;
  t.cells <- Ir.Scratch.grow t.cells (4 lsl t.bits) 0;
  t.name <- Ir.Scratch.grow t.name (1 lsl t.bits) "";
  t.filled <- Ir.Scratch.grow t.filled n 0;
  let changed = ref false in
  let visit i =
    match available t i.kind with
    | -1 -> ()
    | earlier ->
      i.kind <- Copy (Ir.Instr.def_var i.kind, Var earlier);
      changed := true
  in
  let children =
    if Array.length f.blocks <= 1 then fun _ -> []
    else Analysis.Dominance.children (Analysis.Dominance.compute f)
  in
  let rec walk b =
    let mark = t.nfilled in
    List.iter visit f.blocks.(b).instrs;
    List.iter walk (children b);
    while t.nfilled > mark do
      t.nfilled <- t.nfilled - 1;
      t.cells.(4 * t.filled.(t.nfilled)) <- 0
    done
  in
  if Array.length f.blocks > 0 then walk 0;
  !changed

let run (p : P.t) : bool =
  let t = Ir.Scratch.get kept in
  (* A run that raised may have left entries. *)
  Array.fill t.cells 0 (Array.length t.cells) 0;
  t.nfilled <- 0;
  P.fold_funcs (fun acc f -> run_func t f || acc) false p
