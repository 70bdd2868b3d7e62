(** Re-optimization of inserted instrumentation — step (3) of the paper's
    O1/O2 methodology (§4.6). *)

(** Optimistic constant propagation over the shadow program (what LLVM's
    instcombine/SCCP does to MSan's inserted code): shadows rooted only in
    constants fold to "defined", their propagation chains collapse, and
    checks that provably never fire disappear. Semantics-preserving because
    shadow state defaults to true. Returns the number of actions removed. *)
val fold_constants : Item.plan -> int

(** Shadow dead-code elimination: [Set_var]s whose register is never read
    are removed, to a fixpoint, by one reference-counted sweep. Returns
    the number removed. *)
val run : Item.plan -> int
