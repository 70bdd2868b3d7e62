(** Function-level structural queries: successors, predecessors,
    traversals. *)

open Types

val nblocks : func -> int
val block : func -> blockid -> block

(** CFG successors of a block. *)
val succs : func -> blockid -> blockid list

(** [iter_succs g f b] calls [g] on each of [succs f b], in order. *)
val iter_succs : (blockid -> unit) -> func -> blockid -> unit

(** CFG predecessors, for every block at once. *)
val preds : func -> blockid list array

(** Blocks in reverse postorder from the entry; unreachable blocks are
    excluded. *)
val reverse_postorder : func -> blockid list

(** Per-block reachability from the entry. *)
val reachable : func -> bool array

val iter_instrs : (block -> instr -> unit) -> func -> unit

(** [List.filter keep l], calling [keep] in order, sharing the tail after
    the last element dropped: [l] itself when none is. *)
val filter_shared : ('a -> bool) -> 'a list -> 'a list

(** All variables defined in the function, parameters included. *)
val defined_vars : func -> var list

(** Locate the instruction carrying a label, if any. *)
val find_instr : func -> label -> (block * instr) option
