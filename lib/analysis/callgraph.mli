(** The resolved call graph (direct calls plus indirect calls resolved by
    the pointer analysis), its Tarjan SCC condensation, and recursion
    queries. *)

open Ir.Types

type t

val build : Ir.Prog.t -> Andersen.t -> t

val callees_of : t -> fname -> fname list

(** Resolved targets of one call site. *)
val site_callees : t -> label -> fname list

(** Part of a call-graph cycle (including self-recursion)? Recursive
    functions' stack objects are never strongly updated. *)
val is_recursive : t -> fname -> bool

(** SCCs with callees before callers; process in increasing index for
    bottom-up summary computation. *)
val bottom_up_sccs : t -> fname list array
