(** Human-readable IR dumps, in a TinyC-meets-LLVM syntax close to the
    paper's Fig. 2(c). *)

open Types

val operand : Prog.t -> Format.formatter -> operand -> unit
val instr_kind : Prog.t -> Format.formatter -> instr_kind -> unit
val term_kind : Prog.t -> Format.formatter -> term_kind -> unit
val func : Prog.t -> Format.formatter -> func -> unit
val prog : Format.formatter -> Prog.t -> unit

val instr_to_string : Prog.t -> instr -> string
val prog_to_string : Prog.t -> string
