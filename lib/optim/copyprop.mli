(** SSA copy propagation: uses of [x] where [x := y] are replaced by [y];
    single-arm phis are treated as copies. Dead copies are left for DCE. *)

val run : Ir.Prog.t -> bool
