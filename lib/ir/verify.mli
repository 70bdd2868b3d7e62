(** Well-formedness checks for IR programs. *)

(** Raised when a check fails — an alias for [Diag.Error] (phase [Diag.Ir])
    kept under the historical name. *)
exception Ill_formed of Diag.t

(** A [main] exists: the one structural check lowering makes, since
    every pipeline ends with {!check_ssa}. *)
val check_main : Prog.t -> unit

(** Structural invariants: a [main] exists, block ids are dense, branch
    targets exist, calls match arity, used variables exist. *)
val check : Prog.t -> unit

(** [check] plus the single-assignment discipline, in the same walk:
    unique definitions, phi arms matching predecessors, every use locally
    defined. Valid after mem2reg and after every optimization pass. *)
val check_ssa : Prog.t -> unit
