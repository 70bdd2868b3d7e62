(** Dead-code elimination on SSA: pure instructions whose results never
    reach a side-effecting instruction or terminator are deleted. Dead
    loads go too — exactly how LLVM's higher levels "hide some uses of
    undefined values" (paper §4.6). True iff anything changed. *)

val run : Ir.Prog.t -> bool
