(** Definedness resolution (§3.3): [Gamma(v) = bot] iff v reaches the F root
    along a realizable path — interprocedural flows must match call and
    return edges, approximated with 1-callsite call strings (the paper's
    configuration). Matching only ever excludes unrealizable paths, so the
    analysis stays sound.

    By default the search runs over the graph's Eintra-SCC condensation
    ({!Graph.condensation}), visiting each component once per context
    instead of once per member — the resulting Γ is identical. *)

type gamma = {
  undef : Bytes.t;           (** Γ(v) = ⊥, one byte per node id *)
  states_explored : int;
  condensed_sccs : int;
      (** nontrivial SCCs the search collapsed (0 when run uncondensed) *)
}

val is_undef : gamma -> int -> bool

(** [undef] reads as "reached from the F root along a realizable path".
    [condense] (default true) runs over the SCC condensation; [false]
    keeps the node-level search as the reference path for the
    equivalence properties. *)
val resolve :
  ?context_sensitive:bool -> ?condense:bool -> ?budget:Diag.Budget.t ->
  Graph.t -> gamma

(** The everything-⊥ Γ — the sound fallback when resolution faults or runs
    out of budget: more ⊥ only ever adds instrumentation. *)
val all_bot : Graph.t -> gamma

(** Count of ⊥ nodes, for precision ablations. *)
val undef_count : gamma -> int
