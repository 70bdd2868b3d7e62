(* Core types of the LLVM-like intermediate representation.

   The IR mirrors the paper's TinyC-in-SSA view of LLVM-IR (Fig. 1/2/4):
   - top-level variables are virtual registers, accessed directly;
   - address-taken variables only exist behind [Alloc]-produced pointers and
     are accessed via [Load]/[Store];
   - the C address-of operator is compiled away: taking an address means
     allocating ([Alloc]) or computing a field/element address
     ([Field_addr]/[Index_addr]).

   Every instruction and terminator carries a program-unique [label]; labels
   are the keys instrumentation plans, mu/chi side tables and points-to
   results attach to. *)

type var = int
(** Top-level variable (virtual register), program-unique id into
    {!Prog.t.vars}. *)

type label = int
(** Program-unique statement label. *)

type blockid = int
(** Function-local basic-block index. *)

type fname = string
(** Function name. *)

type unop = Neg | Not (* bitwise *) | Lnot (* logical *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne

type operand =
  | Cst of int         (** integer constant; always defined *)
  | Var of var         (** top-level variable *)
  | Undef              (** LLVM-style [undef]: an undefined value *)

(** Memory region kinds: where an allocation lives. *)
type region = Stack | Heap | Global

(** Allocation size: a fixed record of [n] fields (field-sensitive), or an
    array of a possibly dynamic number of cells (analysed as a whole, i.e.
    field-insensitively, as in the paper: "arrays are treated as a whole"). *)
type asize =
  | Fields of int
  | Array_of of operand

type alloc = {
  adst : var;           (** receives the base address *)
  aname : string;       (** source-level name of the object, for printing *)
  region : region;
  initialized : bool;   (** [alloc_T] vs [alloc_F] (calloc vs malloc, ...) *)
  asize : asize;
}

type callee =
  | Direct of fname
  | Indirect of var     (** call through a function pointer *)

type call = {
  cdst : var option;
  callee : callee;
  cargs : operand list;
}

type instr_kind =
  | Const of var * int                    (** x := n *)
  | Copy of var * operand                 (** x := y *)
  | Unop of var * unop * operand
  | Binop of var * binop * operand * operand
  | Alloc of alloc                        (** x := alloc_I rho *)
  | Load of var * var                     (** x := *y *)
  | Store of var * operand                (** *x := v *)
  | Field_addr of var * var * int         (** x := &y->f_k  (field-sensitive) *)
  | Index_addr of var * var * operand     (** x := &y[i]    (array, collapsed) *)
  | Global_addr of var * string           (** x := &g       (global object) *)
  | Func_addr of var * fname              (** x := &f       (function pointer) *)
  | Call of call
  | Phi of var * (blockid * operand) list (** SSA phi, one operand per pred *)
  | Output of operand                     (** external sink (printf analog) *)
  | Input of var                          (** external source, always defined *)

type instr = {
  lbl : label;
  mutable kind : instr_kind;
}

type term_kind =
  | Br of operand * blockid * blockid     (** if x goto b1 else b2 — critical *)
  | Jmp of blockid
  | Ret of operand option

type term = {
  tlbl : label;
  mutable tkind : term_kind;
}

type block = {
  bid : blockid;
  mutable instrs : instr list;
  mutable term : term;
}

type func = {
  fname : fname;
  params : var list;
  mutable blocks : block array;  (** entry block is index 0 *)
}

(** Per-variable metadata, held in the program-wide table. *)
type varinfo = {
  vname : string;
  vowner : fname;     (** function owning the variable; "" for none *)
  vbase : var;        (** pre-SSA variable this is a version of (self if not) *)
  vver : int;         (** SSA version number, 0 before renaming *)
}

(** A global object: always initialized (C default-initializes globals). *)
type global = {
  gname : string;
  gsize : asize;      (** [Array_of] must use a constant size for globals *)
  ginit : int list;   (** leading cells' initial values; rest are 0 *)
}

type t = {
  mutable funcs : (fname * func) list;   (** in declaration order *)
  mutable globals : global list;
  vars : varinfo Vec.t;
  mutable next_label : int;
  mutable next_temp : int;  (** temporaries named so far, t1 .. tN *)
  func_tbl : (fname, func) Hashtbl.t;
}

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="

let unop_to_string = function Neg -> "-" | Not -> "~" | Lnot -> "!"

(** Dense codes of the operators, for encodings and hash keys. *)
let unop_index = function Neg -> 0 | Not -> 1 | Lnot -> 2

let binop_index = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4 | And -> 5
  | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9 | Lt -> 10 | Le -> 11
  | Gt -> 12 | Ge -> 13 | Eq -> 14 | Ne -> 15

(** The IR's arithmetic, shared by the interpreter and constant folding:
    63-bit OCaml ints, division by zero yields 0 and shift counts are
    clamped, so folding never changes behaviour. *)
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

(** [is_bitwise op] — used by the bit-level-precision refinement of the MFC
    definition (§4.1): closures do not cross non-bitwise operations when
    bit-exactness is requested. We model value-level shadows, so this only
    informs statistics. *)
let is_bitwise = function
  | And | Or | Xor | Shl | Shr -> true
  | Add | Sub | Mul | Div | Rem | Lt | Le | Gt | Ge | Eq | Ne -> false
