(** Structural queries over instructions. *)

open Types

(** The top-level variable defined, if any ([Store]/[Output] define none). *)
val def_of : instr_kind -> var option

(** Variables of an operand (zero or one). *)
val operand_vars : operand -> var list

(** All top-level variables read by the instruction, including phi inputs
    and the pointer operands of loads/stores/address computations. *)
val uses_of : instr_kind -> var list

(** Calls the function on each variable [uses_of] lists, in the same order,
    without building the list. *)
val iter_uses : (var -> unit) -> instr_kind -> unit

(** Variables read by a terminator (branch condition, return operand). *)
val term_uses : term_kind -> var list

(** Successor blocks of a terminator. *)
val term_succs : term_kind -> blockid list

(** Rewrite every used operand with [fo]; the defined variable is left
    alone. Pointer operands (which must stay variables) are rewritten only
    when [fo] returns a variable. *)
val map_operands : (operand -> operand) -> instr_kind -> instr_kind

val map_term_operands : (operand -> operand) -> term_kind -> term_kind

(** Does the instruction have an observable effect besides its definition?
    (Dead-code elimination keeps these.) *)
val has_side_effect : instr_kind -> bool
