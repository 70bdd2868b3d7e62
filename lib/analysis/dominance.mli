(** Dominator trees and dominance frontiers, following Cooper, Harvey &
    Kennedy's "A Simple, Fast Dominance Algorithm". Used by mem2reg (phi
    placement), semi-strong updates and Opt II (dominance queries). *)

open Ir.Types

type t

val compute : func -> t

(** Immediate dominator; [None] for the entry and unreachable blocks. *)
val idom : t -> blockid -> blockid option

(** Dominator-tree children. *)
val children : t -> blockid -> blockid list

(** The function's CFG predecessors ([Ir.Func.preds]), as computed for
    the dominator tree. *)
val preds : t -> blockid list array

(** Dominance frontier. The frontiers of all blocks are built on the
    first call, so a caller that never asks pays nothing for them. *)
val frontier : t -> blockid -> blockid list

val reachable : t -> blockid -> bool

(** Reflexive dominance between blocks (constant time). *)
val dominates : t -> blockid -> blockid -> bool

val strictly_dominates : t -> blockid -> blockid -> bool

(** A block's entry and exit times in a depth-first walk of the
    dominator tree; -1 for an unreachable block. A block dominates
    another when its [\[dfs_pre, dfs_post\]] holds the other's. *)
val dfs_pre : t -> blockid -> int

val dfs_post : t -> blockid -> int

(** Label positions within one function, for statement-level dominance:
    label -> (block id, index within block); terminators use [max_int].
    Concrete so clients can test membership cheaply. *)
type label_positions = (label, int * int) Hashtbl.t

val label_positions : func -> label_positions

(** [label_dominates t pos la lb] — does the statement labelled [la]
    dominate the one labelled [lb]? Both must belong to [t]'s function;
    within one block, earlier dominates later (reflexively). *)
val label_dominates : t -> label_positions -> label -> label -> bool
