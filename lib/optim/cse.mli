(** Dominator-scoped common-subexpression elimination (a lightweight GVN):
    later recomputations of available pure expressions become copies.
    Loads are not CSE'd (memory may change between them). *)

val run : Ir.Prog.t -> bool
