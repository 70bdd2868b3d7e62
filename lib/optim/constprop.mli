(** Sparse constant propagation and folding on SSA, with branch folding and
    edge-aware phi pruning. Arithmetic matches the interpreter exactly
    (division by zero yields zero), so folding never changes behaviour.
    A function whose branch folded loses the blocks this left
    unreachable; the function must come in with none. *)

val run : Ir.Prog.t -> bool
