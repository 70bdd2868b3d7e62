(** Full shadow instrumentation — the MSan baseline (§2.2): every value is
    shadowed, every statement gets a shadow statement, every critical
    operation gets a check. Exactly the ⊥ rule set of Figure 7 applied to
    every node. *)

open Ir.Types

(** Shadow of an operand (constants are T, undef is F). *)
val op_shadow : operand -> Item.shadow_rhs

(** Conjunction of operand shadows. *)
val conj_of : operand list -> Item.shadow_rhs

(** The shadow update of a top-level definition ([⊥-Assign], [⊥-Load],
    the destination side of [⊥-Ret] with return relay slot [rs]); [None]
    where the statement defines no register. *)
val def_action : int -> instr_kind -> Item.action option

(** Add the full (MSan) item set for one function to an existing plan.
    [Item.add] deduplicates, so overlaying this on a guided plan is safe —
    the degradation ladder uses it to distrust individual functions. *)
val instrument_func : Item.plan -> Ir.Types.func -> unit

val build : Ir.Prog.t -> Item.plan
