(* Human-readable IR dumps, in a TinyC-meets-LLVM syntax close to Fig. 2(c). *)

open Types

let operand p ppf (o : operand) =
  match o with
  | Cst n -> Fmt.int ppf n
  | Var v -> Fmt.string ppf (Prog.var_name p v)
  | Undef -> Fmt.string ppf "undef"

let pv p ppf v = Fmt.string ppf (Prog.var_name p v)

let asize p ppf = function
  | Fields 1 -> ()
  | Fields n -> Fmt.pf ppf "[%d fields]" n
  | Array_of o -> Fmt.pf ppf "[%a cells]" (operand p) o

let instr_kind p ppf (k : instr_kind) =
  match k with
  | Const (x, n) -> Fmt.pf ppf "%a := %d" (pv p) x n
  | Copy (x, o) -> Fmt.pf ppf "%a := %a" (pv p) x (operand p) o
  | Unop (x, u, o) ->
    Fmt.pf ppf "%a := %s%a" (pv p) x (unop_to_string u) (operand p) o
  | Binop (x, b, o1, o2) ->
    Fmt.pf ppf "%a := %a %s %a" (pv p) x (operand p) o1 (binop_to_string b)
      (operand p) o2
  | Alloc a ->
    Fmt.pf ppf "%a := alloc_%s %s%a <%s>" (pv p) a.adst
      (if a.initialized then "T" else "F")
      a.aname (asize p) a.asize
      (match a.region with Stack -> "stack" | Heap -> "heap" | Global -> "global")
  | Load (x, y) -> Fmt.pf ppf "%a := *%a" (pv p) x (pv p) y
  | Store (x, o) -> Fmt.pf ppf "*%a := %a" (pv p) x (operand p) o
  | Field_addr (x, y, k) -> Fmt.pf ppf "%a := &%a->f%d" (pv p) x (pv p) y k
  | Index_addr (x, y, o) ->
    Fmt.pf ppf "%a := &%a[%a]" (pv p) x (pv p) y (operand p) o
  | Global_addr (x, g) -> Fmt.pf ppf "%a := &%s" (pv p) x g
  | Func_addr (x, f) -> Fmt.pf ppf "%a := &%s" (pv p) x f
  | Call c ->
    let dst ppf = function
      | Some x -> Fmt.pf ppf "%a := " (pv p) x
      | None -> ()
    in
    let callee ppf = function
      | Direct f -> Fmt.string ppf f
      | Indirect v -> Fmt.pf ppf "(*%a)" (pv p) v
    in
    Fmt.pf ppf "%a%a(%a)" dst c.cdst callee c.callee
      (Fmt.list ~sep:Fmt.comma (operand p))
      c.cargs
  | Phi (x, ins) ->
    let arm ppf (b, o) = Fmt.pf ppf "b%d: %a" b (operand p) o in
    Fmt.pf ppf "%a := phi(%a)" (pv p) x (Fmt.list ~sep:Fmt.comma arm) ins
  | Output o -> Fmt.pf ppf "output %a" (operand p) o
  | Input x -> Fmt.pf ppf "%a := input" (pv p) x

let term_kind p ppf (t : term_kind) =
  match t with
  | Br (o, b1, b2) -> Fmt.pf ppf "if %a goto b%d else b%d" (operand p) o b1 b2
  | Jmp b -> Fmt.pf ppf "goto b%d" b
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some o) -> Fmt.pf ppf "ret %a" (operand p) o

let func p ppf (f : func) =
  Fmt.pf ppf "def %s(%a) {@." f.fname
    (Fmt.list ~sep:Fmt.comma (pv p))
    f.params;
  Array.iter
    (fun b ->
      Fmt.pf ppf "b%d:@." b.bid;
      List.iter
        (fun i -> Fmt.pf ppf "  l%d: %a@." i.lbl (instr_kind p) i.kind)
        b.instrs;
      Fmt.pf ppf "  l%d: %a@." b.term.tlbl (term_kind p) b.term.tkind)
    f.blocks;
  Fmt.pf ppf "}@."

let prog ppf (p : Prog.t) =
  List.iter
    (fun (g : global) ->
      Fmt.pf ppf "global %s%a@." g.gname (asize p) g.gsize)
    p.globals;
  Prog.iter_funcs (func p ppf) p

let instr_to_string p i = Fmt.str "%a" (instr_kind p) i.kind
let prog_to_string p = Fmt.str "%a" prog p
