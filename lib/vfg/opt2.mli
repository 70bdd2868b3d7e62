(** Opt II — Redundant Check Elimination (the paper's Algorithm 1, Fig. 9).

    For each variable x used at a critical statement s: every node outside
    x's must-flow closure that feeds into the closure, and whose defining
    statement is dominated by s, is rewired to depend on T. An undefined
    value entering the closure is necessarily reported at s (must-flow),
    and s executes before the rewired definition, so downstream checks
    would only repeat the report.

    Definedness is re-resolved on the modified graph; guided
    instrumentation then runs on the {e original} graph structure with the
    new Γ, keeping shadow initialization correct. *)

type result = {
  gamma : Resolve.gamma;   (** resolved on the modified graph *)
  redirected : int;        (** |union of R_x| — Table 1's "R" column *)
}

(** Algorithm 1's rewiring alone: an edge-only copy of the graph
    ({!Graph.copy_edges}) with every qualifying node rewired to T, and |R|.
    The copy reads the build's node tables. *)
val rewired : ?budget:Diag.Budget.t -> Build.t -> Graph.t * int

(** {!rewired}, then Γ re-resolved on the rewired copy. Traced as three
    spans: [opt2.closure], [opt2.rewire] and [opt2.resolve]. *)
val run : ?context_sensitive:bool -> ?budget:Diag.Budget.t -> Build.t -> result
