(** Promotion of memory to registers — LLVM's mem2reg, the "M" of the
    paper's O0+IM baseline.

    A stack allocation is promotable when it is a single-cell scalar whose
    address is only ever the direct pointer operand of loads and stores.
    Promotion is the standard algorithm with liveness-pruned phi placement
    (as in LLVM); a load before any store yields [Undef] — where C's
    uninitialized locals become explicit undefined values. *)

type stats = { promoted : int; phis_inserted : int }

val run : Ir.Prog.t -> stats
