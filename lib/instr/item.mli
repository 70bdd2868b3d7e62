(** Instrumentation items — the ⟨l, s̄⟩ pairs of §3.4: shadow statements
    attached before or after the labelled statement, executed by the
    runtime engine. Shadow registers live per frame keyed by SSA variable;
    shadow memory is keyed by address; sigma_g is the global relay array
    used for parameter/return shadow passing. *)

open Ir.Types

(** Right-hand sides of shadow register updates. *)
type shadow_rhs =
  | Rconst of bool                      (** T (true = defined) or F *)
  | Rvar of var                         (** sigma(y) *)
  | Rconj of var list                   (** conjunction; [[]] means T *)
  | Rmem of var                         (** shadow of the cell y points to *)
  | Rglobal of int                      (** sigma_g\[i\] *)
  | Rphi of (blockid * operand) list    (** shadow phi: arm by edge taken *)

(** Right-hand sides of shadow memory updates. *)
type mem_rhs =
  | Mconst of bool
  | Mop of operand                      (** sigma(operand); constants are T *)

type action =
  | Set_var of var * shadow_rhs         (** sigma(x) := rhs *)
  | Set_mem of var * mem_rhs            (** one cell through pointer x *)
  | Set_mem_object of var * bool        (** whole object through pointer x *)
  | Set_global of int * operand         (** sigma_g\[i\] := sigma(op) *)
  | Check of operand                    (** E(l) := (sigma(op) = F) *)

type pos = Before | After

type item = { act : action; pos : pos }

(** A complete instrumentation plan for a program. *)
type plan = {
  items : item list array;              (** indexed by label *)
  entry_items : (fname, action list) Hashtbl.t;
  ret_slot : int;                       (** sigma_g index for return values *)
}

val empty_plan : Ir.Prog.t -> plan

(** Structural equality of actions, without the polymorphic [=]. *)
val same_action : action -> action -> bool

(** Attach an item (idempotent per (label, pos, action)). *)
val add : plan -> label -> pos -> action -> unit

(** Attach a function-entry action (idempotent). *)
val add_entry : plan -> fname -> action -> unit

(** Items at a label, in insertion order. *)
val items_at : plan -> label -> pos:pos -> action list

val entry_items : plan -> fname -> action list

(** Static statistics (Figure 11): shadow propagations are static reads of
    shadow state; checks are [Check] items. *)
type stats = { propagations : int; checks : int; total_items : int }

val stats_of : plan -> stats

val action_to_string : Ir.Prog.t -> action -> string
