(** Imperative construction of IR functions, used by the TinyC lowering, the
    workload generator and tests.

    A builder keeps a current block; {!add} appends an instruction to it in
    O(1) and {!terminate} seals it. Blocks are created ahead of time with
    {!new_block}, so structured control flow lowers naturally. {!finish}
    checks every block is terminated, puts each block's instructions in
    order (one reversal per block) and registers the function. *)

open Types

type t

val create : Prog.t -> fname:fname -> t
val prog : t -> Prog.t

val fresh_var : t -> string -> var
val mk_param : t -> string -> var
val fresh_temp : t -> var

(** The name of temporary number [n]: ["t" ^ string_of_int n]. *)
val temp_name : int -> string

(** Create a new, empty block and return its id (not yet current). *)
val new_block : t -> blockid

(** Make a block current.
    @raise Diag.Error (phase [Ir]) if no block has that id. *)
val switch_to : t -> blockid -> unit

(** Has the current block been sealed by {!terminate}? *)
val terminated : t -> bool

(** Append to the current block; returns the instruction's label. *)
val add : t -> instr_kind -> label

(** Seal the current block. *)
val terminate : t -> term_kind -> unit

(** {2 Convenience wrappers returning the defined variable} *)

val const : t -> int -> var
val copy : t -> operand -> var
val binop : t -> binop -> operand -> operand -> var
val unop : t -> unop -> operand -> var

val alloc :
  t -> name:string -> region:region -> initialized:bool -> asize:asize -> var

val load : t -> var -> var
val store : t -> var -> operand -> unit
val field_addr : t -> var -> int -> var
val index_addr : t -> var -> operand -> var
val global_addr : t -> string -> var
val func_addr : t -> fname -> var
val call : t -> dst:var option -> callee:callee -> args:operand list -> unit
val call_val : t -> callee:callee -> args:operand list -> var

(** Seal the function and register it in the program.
    @raise Diag.Error (phase [Ir]) if a block is unterminated. *)
val finish : t -> func
